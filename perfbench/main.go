// Command perfbench is the repository's end-to-end benchmark. It runs the
// paper's 55-HAU TMI job on a simulated 4-node cluster with MS-src+ap
// checkpoints, drives it only through public APIs, checks its output and
// prints every metric by name and unit, ending with one JSON line:
//
//	go run . -workload steady_small -seed 1 -seconds 25 -trace 0
//
// -trace 0 prints the end-to-end metrics, -trace 1 a separately run traced
// copy's per-layer metrics. -manifest prints BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// runSeconds is the length of the timed window the manifest declares.
const runSeconds = 40

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", runSeconds, "timed window length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	traceDir := flag.String("trace-dir", "", "directory the traced run writes its spans to")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *manifest {
		if err := writeManifest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>\n")
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, timed: time.Duration(*seconds * float64(time.Second)), full: *trace == 1, tr: newTracer()}
	if err := r.execute(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED %s\n", w.name, n)
	}
	defs, vals := endToEnd, r.endToEndMetrics()
	if r.full {
		defs, vals = perLayer, r.perLayerMetrics(vals)
		if err := r.tr.write(*traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, *seed)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("workload %s seed %d: %d operations, %d failed; reference %d tuples in %v\n",
		w.name, *seed, r.ops.attempted, r.ops.failed, r.refCount, r.refTime.Round(time.Millisecond))
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
		out[d.Name] = metric{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.ops.failed == 0, r.ops.attempted, r.ops.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.ops.failed > 0 {
		os.Exit(1)
	}
}

// writeManifest prints BENCHMARK.json from the workload and metric tables,
// so the manifest and the program cannot disagree.
func writeManifest(f *os.File) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	names := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.Name] {
			return fmt.Errorf("metric %s declared twice", d.Name)
		}
		names[d.Name] = true
	}
	b, err := json.MarshalIndent(struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{[]string{"python3", "perfbench/run.py"}, []string{"perfbench"}, runSeconds, wls, endToEnd, perLayer}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(b))
	return err
}
