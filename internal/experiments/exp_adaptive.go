package experiments

import (
	"fmt"

	"lite/internal/core"
	"lite/internal/feature"
	"lite/internal/instrument"
	"lite/internal/sparksim"
	"lite/internal/stats"
)

// Table9Result evaluates Adaptive Model Update (Table IX / RQ2.4): per
// cluster, the static NECS versus NECS_u fine-tuned on one fold of the
// validation applications via adversarial learning, evaluated on the other
// fold, over several runs; significance by Wilcoxon signed-rank test.
type Table9Result struct {
	Clusters []string
	Static   map[string]RankingScore
	Updated  map[string]RankingScore
	// PValues of the per-case paired improvements (HR and NDCG).
	PValueHR   map[string]float64
	PValueNDCG map[string]float64
	Runs       int
}

// Table9 runs the fold experiment on each cluster.
func Table9(s *Suite) *Table9Result {
	res := &Table9Result{
		Clusters:   []string{"A", "B", "C"},
		Static:     map[string]RankingScore{},
		Updated:    map[string]RankingScore{},
		PValueHR:   map[string]float64{},
		PValueNDCG: map[string]float64{},
		Runs:       4,
	}
	envs := map[string]sparksim.Environment{"A": sparksim.ClusterA, "B": sparksim.ClusterB, "C": sparksim.ClusterC}

	// A single base NECS trained on the full training set (its encoder is
	// shared; each run fine-tunes a clone).
	base := NewNeuralRanker(VariantNECS, s.Opts.NECS)
	base.Fit(s.Dataset(), s.rng(500))
	model := base.NECS()
	source := core.EncodeAll(model.Encoder, s.Dataset().Instances)

	for ci, cname := range res.Clusters {
		env := envs[cname]
		cases := s.ValidationCases(env, int64(510+ci))
		var hrS, ndcgS, hrU, ndcgU float64
		var pairedHRStatic, pairedHRUpdated []float64
		var pairedNDCGStatic, pairedNDCGUpdated []float64
		var count float64

		for run := 0; run < res.Runs; run++ {
			rng := s.rng(int64(520 + ci*10 + run))
			perm := rng.Perm(len(cases))
			foldSize := len(cases) / 3
			updateFold := perm[:foldSize]
			evalFold := perm[foldSize:]

			// Target-domain feedback: instrumented validation runs of the
			// update fold (recommended-config executions in production).
			var target []*core.Encoded
			for _, i := range updateFold {
				gc := cases[i]
				for r := range gc.Runs {
					if r >= 4 {
						break
					}
					for st := range gc.Runs[r].Stages {
						target = append(target, model.Encoder.Encode(&gc.Runs[r].Stages[st]))
					}
				}
			}
			clone := model.Clone()
			amu := core.DefaultAMUConfig()
			amu.Epochs = 3
			srcSample := sampleEncoded(source, 200, rng)
			core.AdaptiveModelUpdate(clone, srcSample, target, amu, rng)

			for _, i := range evalFold {
				gc := cases[i]
				sStatic := evalScores(necsScores(model, gc), gc.Actual, 5)
				sUpd := evalScores(necsScores(clone, gc), gc.Actual, 5)
				hrS += sStatic.HR
				ndcgS += sStatic.NDCG
				hrU += sUpd.HR
				ndcgU += sUpd.NDCG
				pairedHRStatic = append(pairedHRStatic, sStatic.HR)
				pairedHRUpdated = append(pairedHRUpdated, sUpd.HR)
				pairedNDCGStatic = append(pairedNDCGStatic, sStatic.NDCG)
				pairedNDCGUpdated = append(pairedNDCGUpdated, sUpd.NDCG)
				count++
			}
		}
		res.Static[cname] = RankingScore{HR: hrS / count, NDCG: ndcgS / count}
		res.Updated[cname] = RankingScore{HR: hrU / count, NDCG: ndcgU / count}
		_, res.PValueHR[cname] = stats.WilcoxonSignedRank(pairedHRStatic, pairedHRUpdated)
		_, res.PValueNDCG[cname] = stats.WilcoxonSignedRank(pairedNDCGStatic, pairedNDCGUpdated)
	}
	return res
}

// necsScores predicts candidate times for a gold case with a NECS model.
func necsScores(m *core.NECS, gc *GoldCase) []float64 {
	out := make([]float64, len(gc.Configs))
	for i, cfg := range gc.Configs {
		out[i] = m.PredictApp(gc.App.Spec, gc.Data, gc.Env, cfg)
	}
	return out
}

func sampleEncoded(data []*core.Encoded, n int, rng interface{ Perm(int) []int }) []*core.Encoded {
	if n >= len(data) {
		return data
	}
	perm := rng.Perm(len(data))
	out := make([]*core.Encoded, n)
	for i := 0; i < n; i++ {
		out[i] = data[perm[i]]
	}
	return out
}

// Format renders Table IX.
func (r *Table9Result) Format() string {
	t := NewTable(fmt.Sprintf("Table IX: NECS vs NECS_u (Adaptive Model Update), %d runs, Wilcoxon p-values", r.Runs),
		"cluster", "HR@5", "HR@5 (u)", "p(HR)", "NDCG@5", "NDCG@5 (u)", "p(NDCG)")
	for _, c := range r.Clusters {
		t.AddRow(c,
			fmt.Sprintf("%.4f", r.Static[c].HR), fmt.Sprintf("%.4f", r.Updated[c].HR), fmt.Sprintf("%.4f", r.PValueHR[c]),
			fmt.Sprintf("%.4f", r.Static[c].NDCG), fmt.Sprintf("%.4f", r.Updated[c].NDCG), fmt.Sprintf("%.4f", r.PValueNDCG[c]))
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// Figure 9: stage-based code organization statistics
// ---------------------------------------------------------------------------

// Figure9Result quantifies the data augmentation of Stage-based Code
// Organization (RQ2.2): training-instance counts before vs after stage
// segmentation and tokens per instance.
type Figure9Result struct {
	Apps []string
	// AppInstances / StageInstances per application.
	AppInstances   map[string]int
	StageInstances map[string]int
	// Amplification = StageInstances / AppInstances.
	Amplification map[string]float64
	// MainTokens vs MeanStageTokens per instance.
	MainTokens      map[string]int
	MeanStageTokens map[string]float64
}

// Figure9 computes the statistics over the shared training dataset.
func Figure9(s *Suite) *Figure9Result {
	ds := s.Dataset()
	res := &Figure9Result{
		AppInstances:    map[string]int{},
		StageInstances:  map[string]int{},
		Amplification:   map[string]float64{},
		MainTokens:      map[string]int{},
		MeanStageTokens: map[string]float64{},
	}
	mainCode := map[string]string{}
	for _, a := range s.Apps {
		res.Apps = append(res.Apps, a.Spec.Name)
		mainCode[a.Spec.Name] = a.Spec.MainCode
	}
	agg := instrument.Augmentation(ds.Runs, mainCode, feature.Tokenize)
	for _, name := range res.Apps {
		st := agg[name]
		if st == nil {
			continue
		}
		res.AppInstances[name] = st.AppInstances
		res.StageInstances[name] = st.StageInstances
		res.Amplification[name] = float64(st.StageInstances) / float64(st.AppInstances)
		res.MainTokens[name] = st.MainTokens
		res.MeanStageTokens[name] = st.MeanStageTokens
	}
	return res
}

// Format renders the Figure 9 statistics.
func (r *Figure9Result) Format() string {
	t := NewTable("Figure 9: training instances and tokens before/after Stage-based Code Organization",
		"application", "|D| app", "|D| stage", "amplification", "main tokens", "mean stage tokens")
	for _, app := range r.Apps {
		t.AddRow(app,
			fmt.Sprintf("%d", r.AppInstances[app]),
			fmt.Sprintf("%d", r.StageInstances[app]),
			fmt.Sprintf("%.0fx", r.Amplification[app]),
			fmt.Sprintf("%d", r.MainTokens[app]),
			fmt.Sprintf("%.0f", r.MeanStageTokens[app]))
	}
	return t.String()
}
