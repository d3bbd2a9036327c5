// Command benchcompare measures one perfbench workload at a base
// revision against the working tree, in alternating pairs on the same
// machine, and judges every end-to-end metric against its
// BENCHMARK.json bound. Runs last BENCHMARK.json's run_seconds.
//
// The base revision is exported with `git archive` into a new temporary
// directory (under $TMPDIR), removed afterwards. Each pair runs
// `bash perfbench/run.sh --trace 0` once in each checkout, the base
// first in even pairs and the working tree first in odd ones, so a
// drifting machine favors neither side. It prints every run, then per
// metric both medians, the base's interquartile range, the change and
// how many pairs the working tree won. A metric is WORSE when its median
// moved past its bound in the bad direction, and unresolved when either
// side's interquartile range, relative to its median, exceeds the bound:
// the runs spread too widely to tell. It exits 1 on a WORSE metric or a
// failed run.
//
// Run it from the repository root (make bench-compare does):
//
//	go run ./scripts/benchcompare -base HEAD~1 -workload engine-mix -pairs 10
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// spec is one end-to-end metric as BENCHMARK.json declares it.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // largest tolerated relative worsening
}

type benchmark struct {
	RunSeconds int    `json:"run_seconds"`
	EndToEnd   []spec `json:"end_to_end"`
}

// runResult is perfbench's one-line JSON report.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// sample is one run's outcome: its metrics, or why it failed.
type sample struct {
	values map[string]float64
	err    error
}

func main() {
	base := flag.String("base", "", "base revision (required)")
	workload := flag.String("workload", "", "perfbench workload (required)")
	pairs := flag.Int("pairs", 10, "alternating base/working-tree run pairs")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()
	if *base == "" || *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	worse, err := run(*base, *workload, *pairs, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench-compare:", err)
		os.Exit(1)
	}
	if worse {
		os.Exit(1)
	}
}

func run(base, workload string, pairs int, seed int64) (worse bool, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("run from the repository root: %w", err)
	}
	var bm benchmark
	if err := json.Unmarshal(raw, &bm); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seconds := bm.RunSeconds
	dir, err := os.MkdirTemp("", "benchcompare")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	baseDir := filepath.Join(dir, "base")
	if err := export(base, baseDir); err != nil {
		return false, err
	}
	headDir, err := os.Getwd()
	if err != nil {
		return false, err
	}

	args := []string{"perfbench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0"}
	var baseRuns, headRuns []sample
	for i := 0; i < pairs; i++ {
		order := []string{"base", "head"}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, side := range order {
			if side == "base" {
				baseRuns = append(baseRuns, runOnce(baseDir, args))
			} else {
				headRuns = append(headRuns, runOnce(headDir, args))
			}
			fmt.Fprintf(os.Stderr, "bench-compare: pair %d/%d %s done\n", i+1, pairs, side)
		}
	}

	fmt.Printf("bench-compare: %s seed %d, %ds runs, %d pairs, base %s vs working tree\n\n",
		workload, seed, seconds, pairs, base)
	failed := printRuns(bm.EndToEnd, baseRuns, headRuns)
	fmt.Printf("\n%-22s %14s %14s %23s %8s %5s  %s\n", "metric", "base median", "head median", "base IQR", "change", "wins", "verdict")
	for _, s := range bm.EndToEnd {
		b, h := paired(s.Name, baseRuns, headRuns)
		if len(b) == 0 {
			fmt.Printf("%-22s no paired runs\n", s.Name)
			continue
		}
		v := judge(s, b, h)
		fmt.Printf("%-22s %14.4g %14.4g %11.4g–%-11.4g %+7.1f%% %2d/%-2d  %s\n",
			s.Name, v.baseMed, v.headMed, v.baseQ1, v.baseQ3, 100*v.change, v.wins, len(b), v.status)
		worse = worse || v.status == statusWorse
	}
	if failed > 0 {
		fmt.Printf("\n%d run(s) failed\n", failed)
	}
	return worse || failed > 0, nil
}

// export writes the tree of rev into dst with git archive, so the base
// checkout adds nothing to the repository's own metadata.
func export(rev, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dst)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		_ = untar.Wait()
		return fmt.Errorf("git archive %s: %w", rev, err)
	}
	if err := untar.Wait(); err != nil {
		return fmt.Errorf("extract %s: %w", rev, err)
	}
	return nil
}

// runOnce runs perfbench in one checkout and parses its last output
// line; perfbench's progress goes to this command's standard error.
func runOnce(dir string, args []string) sample {
	cmd := exec.Command("bash", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return sample{err: errors.Join(runErr, fmt.Errorf("no result line: %w", err))}
	}
	if runErr != nil || !res.Correct {
		return sample{err: errors.Join(runErr, errors.New("run reported incorrect results"))}
	}
	s := sample{values: make(map[string]float64, len(res.Metrics))}
	for name, m := range res.Metrics {
		s.values[name] = m.Value
	}
	return s
}

// printRuns lists every run's end-to-end metrics and returns how many
// runs failed.
func printRuns(specs []spec, baseRuns, headRuns []sample) (failed int) {
	fmt.Printf("%-10s", "run")
	for _, s := range specs {
		fmt.Printf(" %14s", s.Name)
	}
	fmt.Println()
	for i := range baseRuns {
		for _, side := range []struct {
			name string
			s    sample
		}{{"base", baseRuns[i]}, {"head", headRuns[i]}} {
			fmt.Printf("%-10s", fmt.Sprintf("%s %d", side.name, i+1))
			if side.s.err != nil {
				failed++
				fmt.Printf(" FAILED: %v\n", side.s.err)
				continue
			}
			for _, s := range specs {
				fmt.Printf(" %14.6g", side.s.values[s.Name])
			}
			fmt.Println()
		}
	}
	return failed
}

// paired returns one metric's values from the pairs in which both runs
// succeeded, in pair order.
func paired(name string, baseRuns, headRuns []sample) (b, h []float64) {
	for i := range baseRuns {
		bv, bok := baseRuns[i].values[name]
		hv, hok := headRuns[i].values[name]
		if baseRuns[i].err == nil && headRuns[i].err == nil && bok && hok {
			b, h = append(b, bv), append(h, hv)
		}
	}
	return b, h
}

const (
	statusOK         = "ok"
	statusWorse      = "WORSE"
	statusUnresolved = "unresolved (spread exceeds bound)"
)

// verdict is one metric's comparison.
type verdict struct {
	baseMed, headMed float64
	baseQ1, baseQ3   float64
	change           float64 // relative median change, positive = worse
	wins             int     // pairs the head side won
	status           string
}

// judge compares one metric's paired runs (base[i] and head[i] ran as a
// pair) against its bound.
func judge(s spec, base, head []float64) verdict {
	v := verdict{baseMed: median(base), headMed: median(head)}
	v.baseQ1, v.baseQ3 = quantile(base, 0.25), quantile(base, 0.75)
	sign := 1.0
	if s.Better == "higher" {
		sign = -1
	}
	for i := range base {
		if sign*(head[i]-base[i]) < 0 {
			v.wins++
		}
	}
	v.change = relative(sign*(v.headMed-v.baseMed), v.baseMed)
	headSpread := relative(quantile(head, 0.75)-quantile(head, 0.25), v.headMed)
	switch {
	case relative(v.baseQ3-v.baseQ1, v.baseMed) > s.Bound || headSpread > s.Bound:
		v.status = statusUnresolved
	case v.change > s.Bound:
		v.status = statusWorse
	default:
		v.status = statusOK
	}
	return v
}

// relative is d as a fraction of ref; a nonzero d over a zero ref is
// infinitely large.
func relative(d, ref float64) float64 {
	switch {
	case d == 0:
		return 0
	case ref == 0:
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(ref)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
