// Package rl implements the Deep Deterministic Policy Gradient baselines of
// Table VI: "DDPG(2h)" (CDBTune-style: state is the inner status summary of
// Spark, action is the knob vector) and "DDPG-C(2h)" (QTune-style: the
// state additionally encodes code features). Both spend a simulated
// two-hour budget repeatedly executing the application.
package rl

import (
	"math/rand"

	"lite/internal/nn"
)

// Params configures a DDPG agent.
type Params struct {
	StateDim  int
	ActionDim int
	HiddenDim int
	ActorLR   float64
	CriticLR  float64
	Gamma     float64
	Tau       float64 // soft target-update rate
	BatchSize int
	BufferCap int
	// OU noise parameters for exploration.
	NoiseTheta float64
	NoiseSigma float64
}

// DefaultParams returns the agent configuration used by the benchmarks.
func DefaultParams(stateDim, actionDim int) Params {
	return Params{
		StateDim:   stateDim,
		ActionDim:  actionDim,
		HiddenDim:  64,
		ActorLR:    1e-3,
		CriticLR:   2e-3,
		Gamma:      0.9,
		Tau:        0.01,
		BatchSize:  16,
		BufferCap:  4096,
		NoiseTheta: 0.15,
		NoiseSigma: 0.2,
	}
}

// Transition is one replay-buffer entry.
type Transition struct {
	State    []float64
	Action   []float64
	Reward   float64
	Next     []float64
	Terminal bool
}

// Agent is a DDPG actor–critic with target networks and a replay buffer.
type Agent struct {
	p Params

	actor        *nn.MLP
	critic       *nn.MLP
	actorTarget  *nn.MLP
	criticTarget *nn.MLP

	actorOpt  *nn.Adam
	criticOpt *nn.Adam

	buffer []Transition
	pos    int
	full   bool

	noise []float64
	rng   *rand.Rand
	// step holds the graph of the current update or action.
	step nn.Arena
}

// NewAgent constructs the agent with Xavier-initialized networks.
func NewAgent(p Params, rng *rand.Rand) *Agent {
	a := &Agent{p: p, rng: rng, noise: make([]float64, p.ActionDim)}
	a.actor = nn.NewMLP([]int{p.StateDim, p.HiddenDim, p.HiddenDim / 2, p.ActionDim}, rng, "actor")
	a.critic = nn.NewMLP([]int{p.StateDim + p.ActionDim, p.HiddenDim, p.HiddenDim / 2, 1}, rng, "critic")
	a.actorTarget = cloneMLP(a.actor)
	a.criticTarget = cloneMLP(a.critic)
	a.actorOpt = nn.NewAdam(a.actor.Params(), p.ActorLR)
	a.criticOpt = nn.NewAdam(a.critic.Params(), p.CriticLR)
	a.buffer = make([]Transition, 0, p.BufferCap)
	return a
}

func cloneMLP(src *nn.MLP) *nn.MLP {
	dst := &nn.MLP{}
	for _, l := range src.Layers {
		dst.Layers = append(dst.Layers, &nn.Dense{
			W: nn.NewParam(l.W.Value.Clone(), l.W.Name()+".target"),
			B: nn.NewParam(l.B.Value.Clone(), l.B.Name()+".target"),
		})
	}
	return dst
}

// policy runs the actor in ar; outputs are squashed into (0,1) per
// dimension because knob vectors are normalized. The action is valid
// until ar's next Reset.
func policy(ar *nn.Arena, actor *nn.MLP, state []float64) []float64 {
	return nn.Sigmoid(actor.Forward(ar.ConstRow(state))).Value.Data
}

// Act returns the exploration action for the given state: actor output
// plus Ornstein–Uhlenbeck noise, clipped to [0,1].
func (a *Agent) Act(state []float64) []float64 {
	a.step.Reset()
	act := append([]float64(nil), policy(&a.step, a.actor, state)...)
	for i := range act {
		a.noise[i] += a.p.NoiseTheta*(0-a.noise[i]) + a.p.NoiseSigma*a.rng.NormFloat64()
		act[i] += a.noise[i]
		if act[i] < 0 {
			act[i] = 0
		}
		if act[i] > 1 {
			act[i] = 1
		}
	}
	return act
}

// Observe stores a transition in the replay buffer.
func (a *Agent) Observe(t Transition) {
	if len(a.buffer) < a.p.BufferCap {
		a.buffer = append(a.buffer, t)
		return
	}
	a.buffer[a.pos] = t
	a.pos = (a.pos + 1) % a.p.BufferCap
	a.full = true
}

// Train runs one mini-batch update of critic and actor plus soft target
// updates. It is a no-op until the buffer holds a full batch.
func (a *Agent) Train() {
	if len(a.buffer) < a.p.BatchSize {
		return
	}
	batch := make([]Transition, a.p.BatchSize)
	for i := range batch {
		batch[i] = a.buffer[a.rng.Intn(len(a.buffer))]
	}

	// --- Critic update: regress Q(s,a) to r + γ·Q'(s', μ'(s')). ---
	ar := &a.step
	ar.Reset()
	a.criticOpt.ZeroGrad()
	var criticLoss *nn.Node
	for _, tr := range batch {
		target := tr.Reward
		if !tr.Terminal {
			nextAct := policy(ar, a.actorTarget, tr.Next)
			qNext := a.criticTarget.Forward(ar.ConstRow(tr.Next, nextAct)).Scalar()
			target += a.p.Gamma * qNext
		}
		q := a.critic.Forward(ar.ConstRow(tr.State, tr.Action))
		l := nn.HuberLoss(q, target, 1.0)
		if criticLoss == nil {
			criticLoss = l
		} else {
			criticLoss = nn.Add(criticLoss, l)
		}
	}
	criticLoss = nn.Scale(criticLoss, 1/float64(a.p.BatchSize))
	nn.Backward(criticLoss)
	a.criticOpt.StepScaled(nn.ClipScale(a.critic.Params(), 5))

	// --- Actor update: ascend Q(s, μ(s)). ---
	ar.Reset()
	a.actorOpt.ZeroGrad()
	a.criticOpt.ZeroGrad() // critic grads from the actor pass are discarded
	var actorLoss *nn.Node
	for _, tr := range batch {
		s := ar.ConstRow(tr.State)
		act := nn.Sigmoid(a.actor.Forward(s))
		q := a.critic.Forward(nn.Concat(s, act))
		l := nn.Scale(q, -1)
		if actorLoss == nil {
			actorLoss = l
		} else {
			actorLoss = nn.Add(actorLoss, l)
		}
	}
	actorLoss = nn.Scale(actorLoss, 1/float64(a.p.BatchSize))
	nn.Backward(actorLoss)
	a.actorOpt.StepScaled(nn.ClipScale(a.actor.Params(), 5))
	a.criticOpt.ZeroGrad()

	// --- Soft target updates. ---
	softUpdate(a.actorTarget, a.actor, a.p.Tau)
	softUpdate(a.criticTarget, a.critic, a.p.Tau)
}

func softUpdate(target, src *nn.MLP, tau float64) {
	tp := target.Params()
	sp := src.Params()
	for i := range tp {
		for j := range tp[i].Value.Data {
			tp[i].Value.Data[j] = (1-tau)*tp[i].Value.Data[j] + tau*sp[i].Value.Data[j]
		}
	}
}
