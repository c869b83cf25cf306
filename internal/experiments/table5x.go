package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/ml"
)

// Table5XDesigns extends the paper's Table V with three further classical
// baselines implemented in internal/ml — logistic regression, Gaussian
// naive Bayes, and k-nearest-neighbours — positioning the paper's
// comparison inside a broader classical spectrum.
var Table5XDesigns = []string{"logistic", "naive-bayes", "knn"}

// extendedBaseline returns the display label and per-fold constructor of
// one extra classifier.
func extendedBaseline(id string, classes int) (string, func(seed int64) ml.Classifier, error) {
	switch id {
	case "logistic":
		return "Logistic Regression", func(seed int64) ml.Classifier {
			return ml.NewLogistic(ml.LogisticConfig{Classes: classes, Epochs: 40, Seed: seed})
		}, nil
	case "naive-bayes":
		return "Naive Bayes", func(int64) ml.Classifier { return ml.NewNaiveBayes(classes) }, nil
	case "knn":
		return "k-NN (k=5)", func(int64) ml.Classifier {
			c := ml.NewKNNClassifier(5, classes)
			c.MaxRef = 2500
			return c
		}, nil
	}
	return "", nil, fmt.Errorf("experiments: unknown extended baseline %q", id)
}

// RunTable5Extended evaluates the extra classical baselines on the same
// UNSW-NB15 workload and folds Table V uses. Combine with RunTable5 for
// the full twelve-design picture.
func RunTable5Extended(p Profile, log io.Writer) (*Table5Result, error) {
	prep, err := prepare(p, UNSW)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{Dataset: UNSW}
	for _, id := range Table5XDesigns {
		label, build, err := extendedBaseline(id, prep.classes)
		if err != nil {
			return nil, err
		}
		summary, err := evalClassical(p, prep, label, build, log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		res.Rows = append(res.Rows, summary)
	}
	return res, nil
}

// FormatTable5Extended renders the extension rows.
func FormatTable5Extended(res *Table5Result) string {
	return metrics.FormatTable(
		"TABLE Vx: ADDITIONAL CLASSICAL BASELINES (UNSW-NB15, extension)",
		res.Rows)
}
