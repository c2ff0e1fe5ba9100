package policy

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"clustersim/internal/core"
	"clustersim/internal/pipeline"
	"clustersim/internal/rng"
	"clustersim/internal/runner"
)

// SearchOptions parameterize a tournament search over controller parameter
// space. The search is deterministic: the same options (and the same
// simulator build) always produce the same leaderboard, and every
// evaluation is a cacheable runner request, so a rerun — or a resumed run
// via the runner's checkpoint directory — is served from the cache.
type SearchOptions struct {
	// Seed drives candidate generation and mutation (internal/rng).
	Seed uint64
	// Population is the number of candidates per generation (default 16,
	// minimum 4: the paper's controllers seed the first generation).
	Population int
	// Generations is the number of selection rounds (default 3).
	Generations int
	// Elites is how many top candidates survive unchanged into the next
	// generation (default Population/4, minimum 1).
	Elites int
	// Benchmarks is the evaluation workload list (required).
	Benchmarks []string
	// Window returns the simulated instruction count per benchmark
	// (required).
	Window func(bench string) uint64
	// WorkloadSeed seeds the workload engine (default 1).
	WorkloadSeed uint64
	// Runner executes the evaluation sweeps (nil builds a default pool).
	// Give it a CheckpointDir and call LoadPersisted first to make the
	// search crash-resumable.
	Runner *runner.Runner
	// Progress, when non-nil, receives one line per generation.
	Progress func(format string, args ...any)
}

func (o SearchOptions) withDefaults() SearchOptions {
	if o.Population < 4 {
		if o.Population == 0 {
			o.Population = 16
		} else {
			o.Population = 4
		}
	}
	if o.Generations <= 0 {
		o.Generations = 3
	}
	if o.Elites <= 0 {
		o.Elites = o.Population / 4
	}
	if o.Elites < 1 {
		o.Elites = 1
	}
	if o.Elites > o.Population/2 {
		o.Elites = o.Population / 2
	}
	if o.WorkloadSeed == 0 {
		o.WorkloadSeed = 1
	}
	if o.Runner == nil {
		o.Runner = runner.New(0)
	}
	return o
}

// Entry is one evaluated candidate on the leaderboard.
type Entry struct {
	// Rank is 1-based leaderboard position.
	Rank int `json:"rank"`
	// Spec is the candidate's policy description.
	Spec *Spec `json:"spec"`
	// Fingerprint is Spec.Fingerprint (the candidate's identity).
	Fingerprint uint64 `json:"fingerprint"`
	// Generation is the generation the candidate first appeared in.
	Generation int `json:"generation"`
	// PerBench holds one Fitness per SearchOptions.Benchmarks entry, in
	// order; Aggregate folds them (geomean IPC, mean energy/churn).
	PerBench  []Fitness `json:"per_bench"`
	Aggregate Fitness   `json:"aggregate"`
}

// Leaderboard is a ranked search outcome.
type Leaderboard struct {
	// Benchmarks is the evaluation workload list (PerBench column order).
	Benchmarks []string `json:"benchmarks"`
	// Entries is every distinct candidate evaluated, best first.
	Entries []Entry `json:"entries"`
	// Runs and CacheHits summarize the simulator work performed.
	Runs      int `json:"runs"`
	CacheHits int `json:"cache_hits"`
}

// Search runs a deterministic tournament/evolutionary search: generation
// zero seeds the paper's controllers plus random parameterizations, each
// generation evaluates its candidates as one runner sweep (benchmark ×
// candidate), the top Elites survive, and the rest of the next generation
// is bred by tournament selection plus family-specific parameter mutation.
func Search(o SearchOptions) (*Leaderboard, error) {
	o = o.withDefaults()
	if len(o.Benchmarks) == 0 {
		return nil, fmt.Errorf("policy: search needs benchmarks")
	}
	if o.Window == nil {
		return nil, fmt.Errorf("policy: search needs a window function")
	}
	r := rng.New(o.Seed)
	stats0 := o.Runner.Stats()

	pop, err := seedPopulation(o.Population, r)
	if err != nil {
		return nil, err
	}
	seen := make(map[uint64]*Entry)
	var order []*Entry // evaluation order, deterministic

	for gen := 0; gen < o.Generations; gen++ {
		if err := evaluate(o, gen, pop, seen, &order); err != nil {
			return nil, err
		}
		ranked := rankPopulation(pop, seen)
		if o.Progress != nil {
			best := seen[ranked[0]]
			o.Progress("gen %d: %d candidates, best %s score %.4f (geomean IPC %.4f)",
				gen, len(ranked), best.Spec.Name, best.Aggregate.Score, best.Aggregate.IPC)
		}
		if gen == o.Generations-1 {
			break
		}
		pop, err = breed(o, r, ranked, seen)
		if err != nil {
			return nil, err
		}
	}

	lb := &Leaderboard{Benchmarks: append([]string(nil), o.Benchmarks...)}
	for _, e := range order {
		lb.Entries = append(lb.Entries, *e)
	}
	sortEntries(lb.Entries)
	for i := range lb.Entries {
		lb.Entries[i].Rank = i + 1
	}
	stats1 := o.Runner.Stats()
	lb.Runs = stats1.Runs - stats0.Runs
	lb.CacheHits = stats1.CacheHits - stats0.CacheHits
	return lb, nil
}

// sortEntries ranks by aggregate score descending, fingerprint ascending as
// the total tie-break (so equal-scoring candidates order deterministically).
func sortEntries(entries []Entry) {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Aggregate.Score != entries[j].Aggregate.Score {
			return entries[i].Aggregate.Score > entries[j].Aggregate.Score
		}
		return entries[i].Fingerprint < entries[j].Fingerprint
	})
}

// seedPopulation builds generation zero: the four paper controllers first,
// then random parameterizations.
func seedPopulation(n int, r *rng.Source) ([]*Spec, error) {
	var pop []*Spec
	for _, name := range []string{"explore", "distant-ilp", "fine-grain", "fine-grain-cr"} {
		s, err := Paper(name)
		if err != nil {
			return nil, err
		}
		pop = append(pop, s)
	}
	for len(pop) < n {
		pop = append(pop, randomSpec(r))
	}
	return pop[:n], nil
}

// evaluate scores every not-yet-seen candidate of pop as one runner sweep.
func evaluate(o SearchOptions, gen int, pop []*Spec, seen map[uint64]*Entry, order *[]*Entry) error {
	type cell struct {
		entry *Entry
		bench int
	}
	var reqs []runner.Request
	var cells []cell
	for _, s := range pop {
		fp, err := s.Fingerprint()
		if err != nil {
			return err
		}
		if _, ok := seen[fp]; ok {
			continue
		}
		e := &Entry{Spec: s, Fingerprint: fp, Generation: gen,
			PerBench: make([]Fitness, len(o.Benchmarks))}
		seen[fp] = e
		*order = append(*order, e)
		for bi, bench := range o.Benchmarks {
			cfg, ctrl, key, err := s.Instantiate(pipeline.DefaultConfig())
			if err != nil {
				return err
			}
			reqs = append(reqs, runner.Request{
				ID:         fmt.Sprintf("policy-search-g%d", gen),
				Bench:      bench,
				Seed:       o.WorkloadSeed,
				Window:     o.Window(bench),
				Config:     cfg,
				Controller: ctrl,
				PolicyKey:  key,
			})
			cells = append(cells, cell{entry: e, bench: bi})
		}
	}
	results, err := o.Runner.RunAll(reqs)
	if err != nil {
		return err
	}
	for i, c := range cells {
		c.entry.PerBench[c.bench] = Evaluate(results[i])
	}
	for _, s := range pop {
		fp, _ := s.Fingerprint()
		e := seen[fp]
		if e.Aggregate == (Fitness{}) {
			e.Aggregate = Aggregate(e.PerBench)
		}
	}
	return nil
}

// rankPopulation returns pop's distinct fingerprints ranked best-first.
func rankPopulation(pop []*Spec, seen map[uint64]*Entry) []uint64 {
	var fps []uint64
	dup := make(map[uint64]bool)
	for _, s := range pop {
		fp, _ := s.Fingerprint()
		if !dup[fp] {
			dup[fp] = true
			fps = append(fps, fp)
		}
	}
	sort.SliceStable(fps, func(i, j int) bool {
		a, b := seen[fps[i]], seen[fps[j]]
		if a.Aggregate.Score != b.Aggregate.Score {
			return a.Aggregate.Score > b.Aggregate.Score
		}
		return a.Fingerprint < b.Fingerprint
	})
	return fps
}

// breed builds the next generation: elites survive, the rest are mutants of
// tournament-selected parents.
func breed(o SearchOptions, r *rng.Source, ranked []uint64, seen map[uint64]*Entry) ([]*Spec, error) {
	var next []*Spec
	for i := 0; i < o.Elites && i < len(ranked); i++ {
		next = append(next, seen[ranked[i]].Spec)
	}
	for len(next) < o.Population {
		// Binary tournament: two uniform picks, the better-ranked wins.
		a, b := r.Intn(len(ranked)), r.Intn(len(ranked))
		if b < a {
			a = b
		}
		next = append(next, mutate(r, seen[ranked[a]].Spec))
	}
	return next, nil
}

// Parameter menus for random generation and mutation. Values bracket the
// paper's constants (see each family's config defaults in internal/core).
var (
	menuInitialInterval = []uint64{5_000, 10_000, 20_000, 50_000}
	menuIPCDelta        = []float64{0.15, 0.25, 0.35, 0.5}
	menuThresh          = []float64{3, 5, 8}
	menuWarmup          = []int{-1, 1, 2}
	menuMetricDelta     = []float64{0.005, 0.01, 0.02}

	menuInterval     = []uint64{500, 1_000, 2_000, 5_000, 10_000}
	menuDistantFrac  = []float64{0.60, 0.70, 0.78, 0.85, 0.90}
	menuNarrow       = []int{2, 4, 8}
	menuEveryNth     = []int{1, 3, 5, 8, 12}
	menuSamples      = []int{3, 5, 10, 20}
	menuWindow       = []int{180, 270, 360, 540, 720}
	menuFlushEveryMI = []uint64{1, 5, 10, 50} // millions of instructions
)

func pickU64(r *rng.Source, menu []uint64) uint64 { return menu[r.Intn(len(menu))] }
func pickF64(r *rng.Source, menu []float64) float64 {
	return menu[r.Intn(len(menu))]
}
func pickInt(r *rng.Source, menu []int) int { return menu[r.Intn(len(menu))] }

// randomSpec draws a dynamic-family candidate with 2–3 mutations applied to
// the family's paper defaults.
func randomSpec(r *rng.Source) *Spec {
	fam := []string{FamilyExplore, FamilyDistantILP, FamilyFineGrain}[r.Intn(3)]
	s := &Spec{Version: Version, Name: fam, Doc: "searched candidate"}
	for k := 2 + r.Intn(2); k > 0; k-- {
		mutateInPlace(r, s)
	}
	return s
}

// mutate returns a copy of parent with one or two parameters re-drawn.
func mutate(r *rng.Source, parent *Spec) *Spec {
	s := &Spec{Version: Version, Name: parent.Name, Doc: "searched candidate",
		Params: parent.Params}
	s.Params.Explore.Configs = slices.Clone(parent.Params.Explore.Configs)
	for k := 1 + r.Intn(2); k > 0; k-- {
		mutateInPlace(r, s)
	}
	return s
}

// mutateInPlace re-draws one parameter of s from its family's menu.
func mutateInPlace(r *rng.Source, s *Spec) {
	switch s.Name {
	case FamilyExplore:
		p := &s.Params.Explore
		switch r.Intn(5) {
		case 0:
			p.InitialInterval = pickU64(r, menuInitialInterval)
		case 1:
			p.IPCDelta = pickF64(r, menuIPCDelta)
		case 2:
			p.Thresh1 = pickF64(r, menuThresh)
			p.Thresh2 = pickF64(r, menuThresh)
		case 3:
			p.WarmupIntervals = pickInt(r, menuWarmup)
		case 4:
			p.MetricDelta = pickF64(r, menuMetricDelta)
		}
	case FamilyDistantILP:
		p := &s.Params.DistantILP
		switch r.Intn(3) {
		case 0:
			p.Interval = pickU64(r, menuInterval)
			// Threshold scales with the interval; re-draw it too so the
			// fraction stays in the calibrated band.
			p.Threshold = uint64(float64(p.Interval) * pickF64(r, menuDistantFrac))
		case 1:
			iv := p.Interval
			if iv == 0 {
				iv = core.DefaultDistantILPInterval
			}
			p.Threshold = uint64(float64(iv) * pickF64(r, menuDistantFrac))
		case 2:
			p.Narrow = pickInt(r, menuNarrow)
		}
	case FamilyFineGrain:
		p := &s.Params.FineGrain
		switch r.Intn(5) {
		case 0:
			p.EveryNthBranch = pickInt(r, menuEveryNth)
		case 1:
			p.Samples = pickInt(r, menuSamples)
		case 2:
			p.Window = pickInt(r, menuWindow)
			p.Threshold = int(float64(p.Window) * pickF64(r, menuDistantFrac))
		case 3:
			w := p.Window
			if w == 0 {
				w = core.DefaultFineGrainWindow
			}
			p.Threshold = int(float64(w) * pickF64(r, menuDistantFrac))
		case 4:
			p.FlushInterval = pickU64(r, menuFlushEveryMI) * 1_000_000
		}
	}
}

// WriteCSV renders the leaderboard as CSV: one row per candidate with the
// aggregate metrics, per-benchmark IPC columns, and the candidate's
// canonical params JSON.
func (l *Leaderboard) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"rank", "family", "fingerprint", "score", "geomean_ipc",
		"energy_per_instr", "churn_per_m_instr"}
	for _, b := range l.Benchmarks {
		header = append(header, "ipc:"+b)
	}
	header = append(header, "params")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, e := range l.Entries {
		params, err := json.Marshal(families[e.Spec.Name].params(&e.Spec.Params))
		if err != nil {
			return err
		}
		row := []string{
			strconv.Itoa(e.Rank),
			e.Spec.Name,
			fmt.Sprintf("%016x", e.Fingerprint),
			formatF(e.Aggregate.Score),
			formatF(e.Aggregate.IPC),
			formatF(e.Aggregate.EnergyPerInstr),
			formatF(e.Aggregate.ChurnPerMInstr),
		}
		for _, f := range e.PerBench {
			row = append(row, formatF(f.IPC))
		}
		row = append(row, string(params))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON renders the leaderboard as indented JSON.
func (l *Leaderboard) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(l)
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
