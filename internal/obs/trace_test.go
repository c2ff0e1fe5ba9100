package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer enabled")
	}
	o.Emit(&Event{}) // must not panic
	if o.Counter("x") != nil || o.Gauge("x") != nil || o.Histogram("x", nil) != nil {
		t.Fatal("nil observer returned live handles")
	}
	// An observer with neither registry nor tracer is also disabled.
	if (&Observer{SamplePeriod: 100}).Enabled() {
		t.Fatal("empty observer enabled")
	}
	if !(&Observer{Registry: NewRegistry()}).Enabled() {
		t.Fatal("registry-only observer disabled")
	}
}

func TestRingSink(t *testing.T) {
	r := NewRingSink(3)
	if r.Len() != 0 {
		t.Fatal("fresh ring non-empty")
	}
	for i := uint64(1); i <= 5; i++ {
		r.Emit(&Event{Cycle: i})
	}
	if r.Len() != 3 {
		t.Fatalf("ring len %d", r.Len())
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Cycle != 3 || evs[2].Cycle != 5 {
		t.Fatalf("ring events %v", evs)
	}
	// n < 1 is clamped rather than panicking.
	if NewRingSink(0).Len() != 0 {
		t.Fatal("clamped ring")
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindDecision: "decision", KindInterval: "interval",
		KindRedirect: "redirect", KindReconfig: "reconfig",
		KindSample: "sample", Kind(200): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("Kind(%d) = %q", k, k.String())
		}
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(&Event{Cycle: 10, Kind: KindDecision, Policy: "explore",
		Trigger: "phase-change", OldActive: 4, NewActive: 16, IPC: 1.5,
		DistantFrac: 0.8, Interval: 1000})
	s.Emit(&Event{Cycle: 20, Kind: KindSample, IQOcc: 12, LinkUtil: 0.25,
		BankQueue: 1.5, Active: 8})
	s.Emit(&Event{Cycle: 30, Kind: KindRedirect, Seq: 7, PC: 0x400})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	var dec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &dec); err != nil {
		t.Fatalf("line 0 invalid JSON: %v\n%s", err, lines[0])
	}
	if dec["kind"] != "decision" || dec["trigger"] != "phase-change" ||
		dec["old_active"] != 4.0 || dec["new_active"] != 16.0 {
		t.Fatalf("decision line %v", dec)
	}
	var sample map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &sample); err != nil {
		t.Fatal(err)
	}
	if sample["iq_occ"] != 12.0 || sample["link_util"] != 0.25 || sample["active"] != 8.0 {
		t.Fatalf("sample line %v", sample)
	}
	// Zero fields are omitted: the redirect line has no policy/ipc keys.
	var red map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &red); err != nil {
		t.Fatal(err)
	}
	if _, ok := red["policy"]; ok {
		t.Fatalf("redirect carries empty policy: %v", red)
	}
	if red["seq"] != 7.0 || red["pc"] != 1024.0 {
		t.Fatalf("redirect line %v", red)
	}
}

func TestChromeSinkIsValidTraceArray(t *testing.T) {
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	s.Emit(&Event{Cycle: 100, Kind: KindDecision, Policy: "explore",
		Trigger: "explore-adopt", OldActive: 16, NewActive: 4, IPC: 2})
	s.Emit(&Event{Cycle: 250, Kind: KindReconfig, Policy: "explore",
		OldActive: 16, NewActive: 4, Writebacks: 12, DrainCycles: 50})
	s.Emit(&Event{Cycle: 300, Kind: KindSample, IQOcc: 40, LinkUtil: 0.1,
		BankQueue: 0.5, Active: 4})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid trace_event array: %v\n%s", err, buf.String())
	}
	// decision(1) + reconfig(1) + sample(4 counter tracks).
	if len(evs) != 6 {
		t.Fatalf("got %d records", len(evs))
	}
	if evs[0]["ph"] != "i" || evs[0]["name"] != "decision" {
		t.Fatalf("decision record %v", evs[0])
	}
	if evs[1]["ph"] != "X" || evs[1]["dur"] != 50.0 || evs[1]["ts"] != 200.0 {
		t.Fatalf("reconfig record %v", evs[1])
	}
	counters := map[string]float64{}
	for _, ev := range evs[2:] {
		if ev["ph"] != "C" {
			t.Fatalf("sample record %v", ev)
		}
		counters[ev["name"].(string)] = ev["args"].(map[string]any)["value"].(float64)
	}
	if counters["active_clusters"] != 4 || counters["iq_occupancy"] != 40 ||
		counters["link_utilization"] != 0.1 || counters["bank_queue"] != 0.5 {
		t.Fatalf("counter tracks %v", counters)
	}
}

func TestTimeSeriesCSV(t *testing.T) {
	var ts *TimeSeries
	ts.Append(SeriesRow{}) // nil-safe
	if ts.Rows() != nil {
		t.Fatal("nil series has rows")
	}
	ts = &TimeSeries{}
	ts.Append(SeriesRow{Cycle: 100, Instructions: 150, Active: 16, IPC: 1.5,
		IQOcc: 32, LinkUtil: 0.2, BankQueue: 1})
	var buf bytes.Buffer
	if err := ts.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[0] != "cycle,instructions,active_clusters,ipc,iq_occupancy,link_utilization,bank_queue" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[1] != "100,150,16,1.5000,32.00,0.2000,1.00" {
		t.Fatalf("row %q", lines[1])
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipeline.cycles").Add(42)
	addr, closeFn, err := Serve("127.0.0.1:0", r, false)
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	defer closeFn()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return buf.String()
	}

	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatalf("/metrics invalid JSON: %v", err)
	}
	if snap.Counters["pipeline.cycles"] != 42 {
		t.Fatalf("/metrics counters %v", snap.Counters)
	}
	if csv := get("/metrics.csv"); !strings.Contains(csv, "pipeline.cycles,counter,42") {
		t.Fatalf("/metrics.csv missing counter:\n%s", csv)
	}
	if vars := get("/debug/vars"); !strings.Contains(vars, "clustersim") {
		t.Fatalf("/debug/vars missing published var:\n%s", vars)
	}
}
