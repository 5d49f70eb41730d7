// Command perfbench is flopt's end-to-end benchmark. One invocation runs
// one workload for a fixed measuring time, checks every output against a
// reference, and prints its metrics as the last stdout line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. The line before it is
// a detailed report with provenance; both are also written under
// .perfbench_out/ together with the traced run's spans (JSONL). See
// README.md for the workloads, the metrics and what each should move.
//
// Run it through run.sh, which builds it and floptd first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports, with
// their units. What each means per workload is in README.md.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"throughput_per_cpu_s", "1/s"},
}

// outcome is what a workload run hands back to main: the metric values
// by name, the attempt and failure counts, the reference-check failures,
// and workload-specific detail for the report line.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	errs      []string
	detail    map[string]any
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "workload: paper-tables, compile-simulate or serve-mixed")
		seed      = fs.Int64("seed", 1, "input seed")
		seconds   = fs.Int("seconds", 40, "measuring time per run")
		traceFlag = fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		root      = fs.String("root", ".", "flopt checkout the benchmark runs in")
		floptd    = fs.String("floptd", "", "floptd binary (serve-mixed)")
		child     = fs.String("child", "", "internal: run one batch pass of this workload")
		pass      = fs.Int("pass", 0, "internal: pass number of a child")
		spans     = fs.String("spans", "", "internal: span file of a traced child")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(*child, *seed, *pass, *traceFlag == 1, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workload, *seed, *seconds, *traceFlag == 1, *root, *floptd); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds int, traced bool, root, floptd string) error {
	if seconds < 1 {
		return errors.New("-seconds must be ≥ 1")
	}
	outDir, err := filepath.Abs(filepath.Join(root, ".perfbench_out"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	traceBit := 0
	if traced {
		traceBit = 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", workload, seed, traceBit)
	spansPath := filepath.Join(outDir, "spans-"+tag+".jsonl")
	if err := os.Remove(spansPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	budget := time.Duration(seconds) * time.Second
	var o *outcome
	switch workload {
	case "paper-tables", "compile-simulate":
		o, err = runBatch(self, workload, seed, budget, traced, spansPath)
	case "serve-mixed":
		if floptd == "" {
			return errors.New("serve-mixed needs -floptd")
		}
		o, err = runServe(floptd, outDir, seed, budget, traced, spansPath)
	default:
		return fmt.Errorf("unknown workload %q (want paper-tables, compile-simulate or serve-mixed)", workload)
	}
	if err != nil {
		return err
	}

	names := endToEnd
	if traced {
		names = perLayer
	}
	res := result{Correct: len(o.errs) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, kv := range names {
		if v, ok := o.values[kv[0]]; ok {
			res.Metrics[kv[0]] = metric{Value: v, Unit: kv[1]}
		}
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	prov := provenance(root)
	prov["seed"] = seed
	if late, ok := o.detail["offsets_lateness_ms"]; ok {
		prov["generator_lateness_ms"] = late
	}
	report := map[string]any{
		"workload":   workload,
		"seconds":    seconds,
		"trace":      traced,
		"provenance": prov,
		"errors":     o.errs,
		"detail":     o.detail,
		"result":     res,
	}
	line, err := json.Marshal(report)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "result-"+tag+".json"), append(line, '\n'), 0o644); err != nil {
		return err
	}
	for _, e := range o.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	fmt.Println(string(line))
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// provenance records what produced a result: the source (git commit
// when the checkout is a repository of its own), the host and the
// runtime.
func provenance(root string) map[string]any {
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"cpu_model":  cpu,
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}
