// Package experiments builds the scenarios that operationalize every figure
// and claim of the paper and measures the coherence the paper predicts
// qualitatively. Each experiment returns a Table whose rows are the series
// recorded in EXPERIMENTS.md; cmd/cohbench prints them and bench_test.go
// times them.
//
// Index is the one list of experiments, with each table's id and title;
// every table runs at one configuration, stated as constants beside it.
// DESIGN.md's experiment table maps the paper's figures and sections to
// the ids.
package experiments
