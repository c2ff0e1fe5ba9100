package policy

import (
	"math"

	"clustersim/internal/energy"
	"clustersim/internal/pipeline"
)

// The multi-objective fitness score is
//
//	Score = IPC − energyWeight·EPI − churnWeight·(reconfigs per M instr)
//
// IPC is the paper's headline metric; the energy term prices powered
// cluster-cycles (the leakage §4.2 recovers by disabling clusters) and the
// churn term prices reconfiguration instability (each applied reconfig
// costs a drain and, under the decentralized cache, a flush). The weights
// keep IPC dominant: a unit of IPC outweighs ~50 energy units per
// instruction (typical runs spend 8–15) and ~1000 reconfigs per M instr.
const (
	energyWeight = 0.02
	churnWeight  = 0.001
)

// Fitness is one run's multi-objective evaluation.
type Fitness struct {
	IPC            float64 `json:"ipc"`
	EnergyPerInstr float64 `json:"energy_per_instr"`
	EDP            float64 `json:"edp"`
	ChurnPerMInstr float64 `json:"churn_per_m_instr"`
	Score          float64 `json:"score"`
}

// Evaluate scores one run result under energy.DefaultModel.
func Evaluate(r pipeline.Result) Fitness {
	m := energy.DefaultModel()
	act := energy.ActivityOf(r)
	br := m.Estimate(act)
	f := Fitness{
		IPC:            r.IPC(),
		EnergyPerInstr: br.EnergyPerInstruction(r.Instructions),
		EDP:            m.EDP(act),
		ChurnPerMInstr: r.ReconfigsPerMInstr(),
	}
	f.Score = f.IPC - energyWeight*f.EnergyPerInstr - churnWeight*f.ChurnPerMInstr
	return f
}

// Aggregate folds per-benchmark fitness values into one candidate-level
// summary: geometric-mean IPC (the paper's cross-benchmark metric),
// arithmetic means for energy and churn, and the score recomputed from the
// aggregates so it stays comparable across candidates evaluated on the
// same benchmark list.
func Aggregate(per []Fitness) Fitness {
	if len(per) == 0 {
		return Fitness{}
	}
	logIPC := 0.0
	var agg Fitness
	for _, f := range per {
		if f.IPC <= 0 {
			logIPC = math.Inf(-1)
		} else {
			logIPC += math.Log(f.IPC)
		}
		agg.EnergyPerInstr += f.EnergyPerInstr
		agg.EDP += f.EDP
		agg.ChurnPerMInstr += f.ChurnPerMInstr
	}
	n := float64(len(per))
	if math.IsInf(logIPC, -1) {
		agg.IPC = 0
	} else {
		agg.IPC = math.Exp(logIPC / n)
	}
	agg.EnergyPerInstr /= n
	agg.EDP /= n
	agg.ChurnPerMInstr /= n
	agg.Score = agg.IPC - energyWeight*agg.EnergyPerInstr - churnWeight*agg.ChurnPerMInstr
	return agg
}
