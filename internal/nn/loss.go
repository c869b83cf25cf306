package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Loss computes a scalar training objective and its gradient with respect
// to the network output.
type Loss interface {
	// Forward returns the mean loss over the batch and caches what Backward
	// needs.
	Forward(pred *tensor.Tensor, labels []int) float64
	// Backward returns dLoss/dPred for the most recent Forward.
	Backward() *tensor.Tensor
}

// SoftmaxCrossEntropy fuses a softmax over logits with categorical
// cross-entropy, yielding the numerically-stable gradient
// (softmax(x) − onehot(y)) / batch.
type SoftmaxCrossEntropy struct {
	probs  *tensor.Tensor // reused probability buffer (valid until next Forward)
	grad   *tensor.Tensor // reused gradient buffer
	labels []int
}

// NewSoftmaxCrossEntropy returns the fused softmax + cross-entropy loss.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

var _ Loss = (*SoftmaxCrossEntropy)(nil)

// Forward implements Loss. pred must be rank-2 logits (batch, classes).
func (l *SoftmaxCrossEntropy) Forward(pred *tensor.Tensor, labels []int) float64 {
	mustRank("SoftmaxCrossEntropy", pred, 2)
	rows, cols := pred.Dim(0), pred.Dim(1)
	if len(labels) != rows {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy got %d labels for batch %d", len(labels), rows))
	}
	probs := ensureLike(&l.probs, pred)
	probs.CopyFrom(pred)
	l.labels = labels
	pd := probs.Data()
	loss := 0.0
	for r := 0; r < rows; r++ {
		row := pd[r*cols : (r+1)*cols]
		softmaxRow(row)
		y := labels[r]
		if y < 0 || y >= cols {
			panic(fmt.Sprintf("nn: label %d out of range for %d classes", y, cols))
		}
		p := row[y]
		if p < 1e-15 {
			p = 1e-15
		}
		loss -= math.Log(p)
	}
	return loss / float64(rows)
}

// Backward implements Loss.
func (l *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	rows, cols := l.probs.Dim(0), l.probs.Dim(1)
	grad := ensureLike(&l.grad, l.probs)
	grad.CopyFrom(l.probs)
	gd := grad.Data()
	inv := 1.0 / float64(rows)
	for r := 0; r < rows; r++ {
		row := gd[r*cols : (r+1)*cols]
		row[l.labels[r]] -= 1
		for i := range row {
			row[i] *= inv
		}
	}
	return grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	pred := logits.ArgmaxRow()
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}
