package nn

import (
	"fmt"
	"math"

	"lite/internal/tensor"
)

// MSELoss returns the scalar squared error (pred − target)² for a 1×1
// prediction node against a constant target (Equation 4 of the paper sums
// this across the training set).
func MSELoss(pred *Node, target float64) *Node {
	return WeightedMSE(pred, []float64{target}, []float64{1})
}

// WeightedMSE returns the scalar Σᵢ wᵢ·(predᵢ − targetᵢ)² over the rows of
// an m×1 prediction node: a minibatch's weighted squared error as one op.
// Row i sends wᵢ·dᵢ + wᵢ·dᵢ back, the two products a Mul(d, d) node sends,
// so a batch's prediction gradients match per-row MSELoss graphs scaled
// by wᵢ bit for bit.
func WeightedMSE(pred *Node, targets, weights []float64) *Node {
	checkRowLoss("WeightedMSE", pred, targets, weights)
	var s float64
	for i, p := range pred.Value.Data {
		d := p - targets[i]
		s += weights[i] * (d * d)
	}
	back := func(g *tensor.Tensor) {
		if !pred.requiresGrad {
			return
		}
		gp := pred.ensureGrad().Data
		for i, p := range pred.Value.Data {
			d := p - targets[i]
			c := g.Data[0] * weights[i]
			gp[i] += c*d + c*d
		}
	}
	return newNode(scalar(pred, s), back, pred)
}

// BCELoss returns the scalar binary cross-entropy −y·log(p) − (1−y)·log(1−p)
// for a 1×1 probability node p against the label y ∈ {0,1}. It is the
// discriminator loss L_D in Adaptive Model Update (paper §IV-B).
func BCELoss(p *Node, y float64) *Node {
	return WeightedBCE(p, []float64{y}, []float64{1})
}

// WeightedBCE returns the scalar Σᵢ wᵢ·BCE(pᵢ, yᵢ) over the rows of an m×1
// probability node, each probability clamped to [1e-9, 1−1e-9] for
// stability in both the value and its derivative.
func WeightedBCE(p *Node, labels, weights []float64) *Node {
	checkRowLoss("WeightedBCE", p, labels, weights)
	const eps = 1e-9
	clamped := floats(p.arena, len(labels))
	var s float64
	for i, pv := range p.Value.Data {
		c, y := math.Min(math.Max(pv, eps), 1-eps), labels[i]
		clamped[i] = c
		s += weights[i] * (-y*math.Log(c) - (1-y)*math.Log(1-c))
	}
	back := func(g *tensor.Tensor) {
		if !p.requiresGrad {
			return
		}
		gp := p.ensureGrad().Data
		for i, c := range clamped {
			gp[i] += g.Data[0] * weights[i] * ((c - labels[i]) / (c * (1 - c)))
		}
	}
	return newNode(scalar(p, s), back, p)
}

// scalar returns a loss op's 1×1 value s, stored where the loss's input
// lives.
func scalar(in *Node, s float64) *tensor.Tensor {
	v := value(in.arena, 1, 1)
	v.Data[0] = s
	return v
}

func checkRowLoss(op string, pred *Node, targets, weights []float64) {
	if pred.Value.Cols != 1 || pred.Value.Rows != len(targets) || len(weights) != len(targets) {
		panic(fmt.Sprintf("nn: %s on a %dx%d node with %d targets and %d weights",
			op, pred.Value.Rows, pred.Value.Cols, len(targets), len(weights)))
	}
}

// HuberLoss returns the scalar Huber (smooth-L1) loss with threshold delta,
// used by the DDPG critic for stability.
func HuberLoss(pred *Node, target, delta float64) *Node {
	d := pred.Value.Data[0] - target
	var v float64
	if math.Abs(d) <= delta {
		v = 0.5 * d * d
	} else {
		v = delta * (math.Abs(d) - 0.5*delta)
	}
	out := scalar(pred, v)
	back := func(g *tensor.Tensor) {
		if !pred.requiresGrad {
			return
		}
		var grad float64
		if math.Abs(d) <= delta {
			grad = d
		} else if d > 0 {
			grad = delta
		} else {
			grad = -delta
		}
		pred.ensureGrad().Data[0] += float64(g.Data[0] * grad)
	}
	return newNode(out, back, pred)
}
