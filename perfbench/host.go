package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostInfo identifies the machine a record was measured on. Records from
// different machines are never compared.
type hostInfo struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// buildInfo names the code measured: the git commit the binary was built
// from and whether the tree had uncommitted changes ("unknown" outside a
// git checkout).
type buildInfo struct {
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
}

func fingerprint() hostInfo {
	h := hostInfo{CPU: "unknown", NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func build() buildInfo {
	b := buildInfo{Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				b.Commit = s.Value
			case "vcs.modified":
				b.Dirty = s.Value == "true"
			}
		}
	}
	return b
}

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain compares two sets of untraced records (base, head) per
// workload and end-to-end metric against the bounds in BENCHMARK.json.
// It refuses records measured on different hosts, and a side that mixes
// commits. Exit status: 0 no regression, 1 a regression or an unresolved
// metric, 2 refused.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(w, "usage: perfbench compare [-spec BENCHMARK.json] BASE.jsonl HEAD.jsonl")
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	var sides [2][]record
	for i := range sides {
		recs, err := readRecords(fs.Arg(i))
		if err != nil {
			fmt.Fprintln(w, "compare:", err)
			return 2
		}
		for _, r := range recs {
			if r.Trace == 0 {
				sides[i] = append(sides[i], r)
			}
		}
		if len(sides[i]) == 0 {
			fmt.Fprintf(w, "compare: %s holds no untraced records\n", fs.Arg(i))
			return 2
		}
	}
	if msg := comparable(sides[0], sides[1]); msg != "" {
		fmt.Fprintln(w, "compare: refused:", msg)
		return 2
	}
	fmt.Fprintf(w, "host %s, nproc %d, GOMAXPROCS %d, %s\nbase %s (dirty %v)  head %s (dirty %v)\n",
		sides[0][0].Host.CPU, sides[0][0].Host.NProc, sides[0][0].Host.GoMaxProcs, sides[0][0].Host.GoVersion,
		sides[0][0].Build.Commit, sides[0][0].Build.Dirty, sides[1][0].Build.Commit, sides[1][0].Build.Dirty)
	workloads := map[string]bool{}
	for _, r := range append(append([]record(nil), sides[0]...), sides[1]...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	status := 0
	fmt.Fprintf(w, "%-16s %-18s %5s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "runs", "base median", "head median", "change", "spread", "bound", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			base, head := values(sides[0], wl, m.Name), values(sides[1], wl, m.Name)
			if len(base) == 0 || len(head) == 0 {
				continue
			}
			bm, hm := median(base), median(head)
			change := (hm - bm) / bm
			if m.Better == "higher" {
				change = -change // positive change is always "worse"
			}
			spread := iqr(base) / bm
			verdict := "ok"
			switch {
			case change > m.Bound && spread > m.Bound && !allBetter(head, base, m.Better):
				verdict, status = "unresolved (spread > bound)", 1
			case change > m.Bound:
				verdict, status = "WORSE", 1
			case spread > m.Bound && !allBetter(head, base, m.Better):
				verdict = "unresolved (spread > bound)"
			}
			fmt.Fprintf(w, "%-16s %-18s %2d/%-2d %14.6g %14.6g %+8.2f%% %6.2f%% %6.0f%%  %s\n",
				wl, m.Name, len(base), len(head), bm, hm, 100*change, 100*spread, 100*m.Bound, verdict)
		}
	}
	return status
}

// comparable explains why two sides cannot be compared, or returns "".
func comparable(base, head []record) string {
	host := base[0].Host
	for _, side := range [][]record{base, head} {
		for _, r := range side {
			if r.Host != host {
				return fmt.Sprintf("host fingerprints differ: %+v vs %+v", host, r.Host)
			}
			if r.Build != side[0].Build {
				return fmt.Sprintf("one side mixes builds: %+v vs %+v", side[0].Build, r.Build)
			}
			if r.Seconds != base[0].Seconds {
				return fmt.Sprintf("run lengths differ: %d vs %d seconds", base[0].Seconds, r.Seconds)
			}
		}
	}
	return ""
}

func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// iqr is the distance between the first and third quartiles, by the
// exclusive method of Python's statistics.quantiles(n=4).
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return q(0.75) - q(0.25)
}

// allBetter reports whether every head value beats every base value.
func allBetter(head, base []float64, better string) bool {
	for _, h := range head {
		for _, b := range base {
			if (better == "higher" && h <= b) || (better != "higher" && h >= b) {
				return false
			}
		}
	}
	return true
}
