package nn

import (
	"math"

	"lite/internal/tensor"
)

// ZeroGrads clears the gradient buffers of the given parameters.
func ZeroGrads(params []*Node) {
	for _, p := range params {
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
}

// ClipScale returns the factor that clips the gradients of params to a
// global L2 norm of at most c: c/norm, or 1 when the norm is 0 or already
// at most c. Adam.StepScaled applies it as it reads the gradients, which
// it leaves unscaled.
func ClipScale(params []*Node, c float64) float64 {
	var total float64
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= c || norm == 0 {
		return 1
	}
	return c / norm
}

// Adam implements the Adam optimizer (Kingma & Ba, 2015), the default for
// training NECS and all neural baselines.
type Adam struct {
	Params []*Node
	LR     float64
	Beta1  float64
	Beta2  float64
	Eps    float64
	// WeightDecay applies decoupled L2 regularization (AdamW style).
	WeightDecay float64

	m, v []*tensor.Tensor
	t    int
}

// NewAdam constructs Adam with standard hyperparameters.
func NewAdam(params []*Node, lr float64) *Adam {
	a := &Adam{Params: params, LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Rows, p.Value.Cols)
		a.v[i] = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	return a
}

// Step applies one Adam update.
func (a *Adam) Step() { a.step(1, false) }

// StepScaled applies one Adam update to the gradients multiplied by s
// (ClipScale): the weights and moments that scaling every gradient in
// place by s and then calling Step give, bit for bit, without writing the
// gradients.
func (a *Adam) StepScaled(s float64) { a.step(s, s != 1) }

func (a *Adam) step(s float64, scaled bool) {
	a.t++
	// The hyperparameters are loaded once, 1−β1 and 1−β2 are computed
	// once, every slice is re-sliced to the weights' length so the loop
	// body has no bounds checks, and each moment is read and written once.
	// The update expression's evaluation order is part of the trained
	// weights' bits (internal/core/bits_test.go): keep it term for term.
	beta1, beta2, lr, eps, wd := a.Beta1, a.Beta2, a.LR, a.Eps, a.WeightDecay
	c1, c2 := 1-beta1, 1-beta2
	bc1 := 1 - math.Pow(beta1, float64(a.t))
	bc2 := 1 - math.Pow(beta2, float64(a.t))
	for i, p := range a.Params {
		if p.Grad == nil {
			continue
		}
		w := p.Value.Data
		grad := p.Grad.Data[:len(w)]
		m, v := a.m[i].Data[:len(w)], a.v[i].Data[:len(w)]
		for j := range w {
			g := grad[j]
			if scaled {
				g *= s
			}
			mj := beta1*m[j] + c1*g
			vj := beta2*v[j] + c2*g*g
			m[j], v[j] = mj, vj
			mHat := mj / bc1
			vHat := vj / bc2
			w[j] -= lr * (mHat/(math.Sqrt(vHat)+eps) + wd*w[j])
		}
	}
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() { ZeroGrads(a.Params) }
