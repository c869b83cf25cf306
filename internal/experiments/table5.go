package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/synth"
	"repro/internal/tensor"
)

// Table5Designs are the compared designs in the paper's Table V order
// (worst to best as the paper lists them).
var Table5Designs = []string{
	"adaboost", "svm-rbf", "hast-ids", "cnn", "lstm", "mlp", "rf", "lunet", "pelican",
}

// table5DisplayName maps design ids to the paper's labels.
func table5DisplayName(id string) string {
	switch id {
	case "adaboost":
		return "AdaBoost"
	case "svm-rbf":
		return "SVM (RBF)"
	case "hast-ids":
		return "HAST-IDS"
	case "cnn":
		return "CNN"
	case "lstm":
		return "LSTM"
	case "mlp":
		return "MLP"
	case "rf":
		return "RF"
	case "lunet":
		return "LuNet"
	case "pelican":
		return "Pelican"
	}
	return id
}

// classicalBaseline returns the per-fold constructor of a non-neural
// classifier of §V-H, or nil for a neural design.
func classicalBaseline(id string, classes int) func(seed int64) ml.Classifier {
	switch id {
	case "adaboost":
		return func(seed int64) ml.Classifier {
			return ml.NewAdaBoost(ml.AdaBoostConfig{Rounds: 50, StumpDepth: 1, Classes: classes, Seed: seed})
		}
	case "rf":
		return func(seed int64) ml.Classifier {
			return ml.NewForest(ml.ForestConfig{Trees: 100, MaxDepth: 16, Classes: classes, Seed: seed})
		}
	case "svm-rbf":
		return func(seed int64) ml.Classifier {
			return ml.NewSVM(ml.SVMConfig{C: 1, Classes: classes, Subsample: 2500, Seed: seed})
		}
	}
	return nil
}

// Table5Result is the comparative study's outcome.
type Table5Result struct {
	Dataset DatasetID
	Rows    []metrics.Summary
}

// RunTable5 reproduces Table V: train every design — three classical ML
// baselines and six neural designs — on UNSW-NB15 and report DR/ACC/FAR.
func RunTable5(p Profile, log io.Writer) (*Table5Result, error) {
	prep, err := prepare(p, UNSW)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{Dataset: UNSW}
	for _, id := range Table5Designs {
		if build := classicalBaseline(id, prep.classes); build != nil {
			summary, err := evalClassical(p, prep, table5DisplayName(id), build, log)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			res.Rows = append(res.Rows, summary)
			continue
		}
		ev, err := trainEval(p, prep, id, log)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		s := ev.Summary
		s.Design = table5DisplayName(id)
		res.Rows = append(res.Rows, s)
	}
	return res, nil
}

// evalClassical fits a classical classifier on each fold's rank-2
// features, building a fresh one per fold from build.
func evalClassical(p Profile, prep *prepared, design string, build func(seed int64) ml.Classifier, log io.Writer) (metrics.Summary, error) {
	conf := metrics.NewConfusion(prep.classes)
	for fi, fold := range prep.folds {
		// Re-seed per fold so CV folds are independent fits.
		clf := build(p.Seed + int64(fi))
		xTr, yTr := gatherFlat(prep.x, prep.y, fold.Train)
		xTe, yTe := gatherFlat(prep.x, prep.y, fold.Test)
		if log != nil {
			fmt.Fprintf(log, "  [%s/%s fold %d] fitting on %d records\n", prep.id, design, fi, xTr.Dim(0))
		}
		if err := clf.Fit(xTr, yTr); err != nil {
			return metrics.Summary{}, err
		}
		conf.AddAll(yTe, clf.Predict(xTe))
	}
	return metrics.Summarize(design, conf, 0), nil
}

// gatherFlat copies rows into a rank-2 tensor for classical classifiers.
func gatherFlat(x *tensor.Tensor, y []int, idx []int) (*tensor.Tensor, []int) {
	f := x.Dim(1)
	out := tensor.New(len(idx), f)
	labels := make([]int, len(idx))
	for i, j := range idx {
		copy(out.Row(i), x.Row(j))
		labels[i] = y[j]
	}
	return out, labels
}

// FormatTable5 renders the paper's Table V layout.
func FormatTable5(res *Table5Result) string {
	return metrics.FormatTable(
		"TABLE V: A COMPARISON OF PELICAN'S PERFORMANCE WITH CLASSICAL TECHNIQUES (BASED ON UNSW-NB15)",
		res.Rows)
}

// FormatTable1 echoes the paper's Table I parameter settings for the
// active profile, annotating which values the profile scales down.
func FormatTable1(p Profile) string {
	type row struct{ name, unsw, nsl string }
	unswCfg, unswRecords, unswEpochs, _ := p.DatasetConfig(UNSW)
	nslCfg, nslRecords, nslEpochs, _ := p.DatasetConfig(NSL)
	unswWidth := synth.MustNew(unswCfg).Schema().EncodedWidth()
	nslWidth := synth.MustNew(nslCfg).Schema().EncodedWidth()
	rows := []row{
		{"Filter size", fmt.Sprint(unswWidth), fmt.Sprint(nslWidth)},
		{"Kernel size", "10", "10"},
		{"Recurrent unit", fmt.Sprint(unswWidth), fmt.Sprint(nslWidth)},
		{"Dropout rate", "0.6", "0.6"},
		{"Epochs", fmt.Sprint(unswEpochs), fmt.Sprint(nslEpochs)},
		{"Learning rate", fmt.Sprint(p.LR), fmt.Sprint(p.LR)},
		{"Batch size", fmt.Sprint(p.Batch), fmt.Sprint(p.Batch)},
		{"Records", fmt.Sprint(unswRecords), fmt.Sprint(nslRecords)},
	}
	out := fmt.Sprintf("TABLE I: PARAMETER SETTING (profile %q)\n", p.Name)
	out += fmt.Sprintf("%-16s %12s %12s\n", "Category", "UNSW-NB15", "NSL-KDD")
	for _, r := range rows {
		out += fmt.Sprintf("%-16s %12s %12s\n", r.name, r.unsw, r.nsl)
	}
	return out
}
