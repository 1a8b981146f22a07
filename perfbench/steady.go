package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report needs.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runOut struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]valued `json:"metrics"`
}

// steady runs one workload repeatedly with consecutive seeds and prints,
// for every end-to-end metric, the median, the quartiles and the spread
// (q3−q1)/median against the metric's bound in BENCHMARK.json. With
// -traced it adds one traced run and prints its end-to-end values beside
// the medians, so the tracing overhead shows. It exits 1 if a run failed or
// a spread exceeds its bound.
func steady(root string, args []string) int {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	runs := fs.Int("runs", 10, "untraced runs")
	seed := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
	traced := fs.Bool("traced", false, "add one traced run and show its end-to-end values")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "steady: BENCHMARK.json:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	one := func(s uint64, trace int) (runOut, map[string]valued, error) {
		cmd := exec.Command(self, "-root", root, "-workload", *name, "-seed", strconv.FormatUint(s, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		outb, err := cmd.Output()
		var ro runOut
		var e2e map[string]valued
		sc := bufio.NewScanner(bytes.NewReader(outb))
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		last := ""
		for sc.Scan() {
			last = sc.Text()
			if rest, ok := strings.CutPrefix(last, "e2e "); ok {
				_ = json.Unmarshal([]byte(rest), &e2e)
			}
		}
		if err != nil {
			return ro, nil, fmt.Errorf("seed %d: %w", s, err)
		}
		if err := json.Unmarshal([]byte(last), &ro); err != nil {
			return ro, nil, fmt.Errorf("seed %d: last line: %w", s, err)
		}
		return ro, e2e, nil
	}
	values := map[string][]float64{}
	failed := false
	for i := 0; i < *runs; i++ {
		ro, _, err := one(*seed+uint64(i), 0)
		if err != nil || !ro.Correct || ro.Failed > 0 {
			fmt.Fprintf(os.Stderr, "steady: run %d: err=%v correct=%v failed=%d\n", i, err, ro.Correct, ro.Failed)
			failed = true
			continue
		}
		for k, v := range ro.Metrics {
			values[k] = append(values[k], v.Value)
		}
		b, _ := json.Marshal(ro.Metrics)
		fmt.Fprintf(os.Stderr, "steady: run %d/%d seed %d: %s\n", i+1, *runs, *seed+uint64(i), b)
	}
	var tracedE2E map[string]valued
	if *traced {
		ro, e2e, err := one(*seed+uint64(*runs), 1)
		if err != nil || !ro.Correct {
			fmt.Fprintf(os.Stderr, "steady: traced run: err=%v correct=%v\n", err, ro.Correct)
			failed = true
		}
		tracedE2E = e2e
	}
	fmt.Printf("steadiness of %s: %d runs, seeds %d..%d, %d s each\n", *name, *runs, *seed, *seed+uint64(*runs)-1, *seconds)
	fmt.Printf("%-26s %12s %12s %12s %8s %6s %12s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "traced", "flag")
	over := false
	for _, m := range spec.EndToEnd {
		xs := values[m.Name]
		q1, q2, q3 := quartiles(xs)
		spread := ratio(q3-q1, q2)
		flagS := ""
		switch {
		case len(xs) == 0:
			flagS = "MISSING"
			over = true
		case spread > m.Bound && m.Name != "setup_s":
			flagS = "OVER BOUND"
			over = true
		case spread > m.Bound:
			flagS = "over bound (setup_s: reported, not gated)"
		case spread > m.Bound/3:
			flagS = "over bound/3"
		}
		tr := ""
		if v, ok := tracedE2E[m.Name]; ok {
			tr = strconv.FormatFloat(v.Value, 'g', 5, 64)
		}
		fmt.Printf("%-26s %12.5g %12.5g %12.5g %8.4f %6.3f %12s  %s\n", m.Name, q2, q1, q3, spread, m.Bound, tr, flagS)
	}
	if failed || over {
		return 1
	}
	return 0
}

// valued is one metric of a result line.
type valued struct {
	Value float64 `json:"value"`
}
