// Package instrument implements Stage-based Code Organization (paper
// §III-B): it runs an application instance and segments it into stage-level
// training instances, each pairing the stage's expanded code and scheduler
// DAG with the knob values, data features, environment and the stage's
// execution time.
//
// In the paper this is a JVM byte-code instrumentation agent that hooks the
// org/apache/spark/{rdd,api,mllib,graphx} packages and parses event logs;
// here it walks the simulator's stage plan and per-stage results, which
// yields the same (code, DAG, knobs, data, env, stage time) tuples. The
// data-augmentation effect is identical: one application run produces as
// many training instances as it has stage executions.
package instrument

import "lite/internal/sparksim"

// StageInstance is one training instance x_i of the paper's §III-C
// six-tuple ⟨o_i, C_i, G_i, d_i, e_i, y_i⟩, before feature encoding.
// AppName/AppRun identify the application instance w(x_i) the stage was
// extracted from.
type StageInstance struct {
	AppName    string
	AppFamily  string
	StageIndex int
	StageName  string

	// Code is the expanded stage-level source code (C_i is derived from
	// it by token embedding in internal/feature).
	Code string
	// Ops and Edges are the stage-level DAG scheduler (G_i): node labels
	// are atomic operations, edges are RDD dependencies.
	Ops   []string
	Edges [][2]int

	Config sparksim.Config
	Data   sparksim.DataSpec
	Env    sparksim.Environment

	// Seconds is the stage-level execution time y_i.
	Seconds float64
	// AppSeconds is the total execution time of the application instance.
	AppSeconds float64

	// Stage-level data statistics from the "Spark monitor UI": used only
	// by the S/SC feature baselines of Table VII, never by NECS (they are
	// unavailable before actually running on the target data).
	InputMB   float64
	ShuffleMB float64
	Tasks     int
}

// AppInstance groups the stage instances of one application run together
// with the run outcome.
type AppInstance struct {
	AppName string
	Config  sparksim.Config
	Data    sparksim.DataSpec
	Env     sparksim.Environment
	Result  sparksim.Result
	Stages  []StageInstance
}

// Run executes the application under the given configuration and segments
// it into stage-level instances (instrumentation Step 1). Failed runs still
// yield one instance per planned stage with the failure cap spread across
// them, so learned models observe catastrophic knob regions.
func Run(app *sparksim.AppSpec, data sparksim.DataSpec, env sparksim.Environment, cfg sparksim.Config) AppInstance {
	res := sparksim.Simulate(app, data, env, cfg)
	inst := AppInstance{
		AppName: app.Name,
		Config:  cfg,
		Data:    data,
		Env:     env,
		Result:  res,
	}
	if res.Failed {
		plan := app.ExpandedStages(data)
		per := res.Seconds / float64(len(plan))
		for _, si := range plan {
			st := &app.Stages[si]
			inst.Stages = append(inst.Stages, StageInstance{
				AppName:    app.Name,
				AppFamily:  app.Family,
				StageIndex: si,
				StageName:  st.Name,
				Code:       st.Code,
				Ops:        st.Ops,
				Edges:      st.Edges,
				Config:     cfg,
				Data:       data,
				Env:        env,
				Seconds:    per,
				AppSeconds: res.Seconds,
			})
		}
		return inst
	}
	for _, sr := range res.Stages {
		st := &app.Stages[sr.StageIndex]
		inst.Stages = append(inst.Stages, StageInstance{
			AppName:    app.Name,
			AppFamily:  app.Family,
			StageIndex: sr.StageIndex,
			StageName:  st.Name,
			Code:       st.Code,
			Ops:        st.Ops,
			Edges:      st.Edges,
			Config:     cfg,
			Data:       data,
			Env:        env,
			Seconds:    sr.Seconds,
			AppSeconds: res.Seconds,
			InputMB:    sr.InputMB,
			ShuffleMB:  sr.ShuffleMB,
			Tasks:      sr.Tasks,
		})
	}
	return inst
}

// Stats summarizes the augmentation effect of Stage-based Code Organization
// for Figure 9 of the paper: instance counts and token counts before/after.
type Stats struct {
	AppName string
	// AppInstances is the number of application-level instances.
	AppInstances int
	// StageInstances is the number after stage segmentation.
	StageInstances int
	// MainTokens is the token count of the main-body code.
	MainTokens int
	// MeanStageTokens is the average token count per stage-level instance.
	MeanStageTokens float64
}

// Augmentation computes Figure-9 statistics for a set of application runs.
// tokenize is the code tokenizer (internal/feature.Tokenize).
func Augmentation(instances []AppInstance, mainCode map[string]string, tokenize func(string) []string) map[string]*Stats {
	out := map[string]*Stats{}
	for i := range instances {
		ai := &instances[i]
		s, ok := out[ai.AppName]
		if !ok {
			s = &Stats{AppName: ai.AppName, MainTokens: len(tokenize(mainCode[ai.AppName]))}
			out[ai.AppName] = s
		}
		s.AppInstances++
		s.StageInstances += len(ai.Stages)
		for _, st := range ai.Stages {
			s.MeanStageTokens += float64(len(tokenize(st.Code)))
		}
	}
	for _, s := range out {
		if s.StageInstances > 0 {
			s.MeanStageTokens /= float64(s.StageInstances)
		}
	}
	return out
}
