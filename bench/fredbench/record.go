package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// provenanceInfo records what a series needs to be reproduced and
// compared: the command, the code revision, the toolchain, the host and
// its parallelism, and the input seed.
type provenanceInfo struct {
	Command     string `json:"command"`
	GitRevision string `json:"git_revision"`
	GoVersion   string `json:"go_version"`
	Host        string `json:"host"`
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        int64  `json:"seed"`
	Started     string `json:"started"`
}

func provenance(cfg *config) provenanceInfo {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return provenanceInfo{
		Command:     strings.Join(append([]string{"fredbench"}, os.Args[1:]...), " "),
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		Host:        host + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPU:         cpuModel(),
		NProc:       nproc,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        cfg.seed,
		Started:     time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRevision reads the revision the go command stamped into the
// binary; a build outside a git checkout has none.
func gitRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is one workload run as appended to an -out file.
type record struct {
	Provenance provenanceInfo `json:"provenance"`
	Workload   string         `json:"workload"`
	Trace      bool           `json:"trace"`
	Result     *result        `json:"result"`
	// WallClock holds an untraced run's times before host
	// normalization, and the host probe's median time.
	WallClock map[string]float64 `json:"wall_clock,omitempty"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// summarizeFiles prints, for each untraced workload and end-to-end
// metric of each file — and each wall-clock value before host
// normalization, prefixed wall: — the median and the quartile spread
// (q3 − q1 over the median) across its runs, and, given two files, how
// far the second median moved from the first.
func summarizeFiles(w io.Writer, paths []string) error {
	type key struct{ workload, metric string }
	sets := make([]map[key][]float64, len(paths))
	var order []key
	seen := map[key]bool{}
	for i, p := range paths {
		recs, err := readRecords(p)
		if err != nil {
			return err
		}
		sets[i] = map[key][]float64{}
		for _, r := range recs {
			if r.Trace || r.Result == nil {
				continue
			}
			vals := map[string]float64{}
			for name, m := range r.Result.Metrics {
				vals[name] = m.Value
			}
			for name, v := range r.WallClock {
				vals["wall:"+name] = v
			}
			for _, name := range sortedKeys(vals) {
				k := key{r.Workload, name}
				sets[i][k] = append(sets[i][k], vals[name])
				if !seen[k] {
					seen[k] = true
					order = append(order, k)
				}
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].workload < order[b].workload })
	fmt.Fprintf(w, "%-15s %-16s", "workload", "metric")
	for i := range paths {
		fmt.Fprintf(w, " | %5s %12s %8s", fmt.Sprintf("n%d", i+1), fmt.Sprintf("median%d", i+1), "spread")
	}
	if len(paths) == 2 {
		fmt.Fprintf(w, " | %8s", "shift")
	}
	fmt.Fprintln(w)
	for _, k := range order {
		fmt.Fprintf(w, "%-15s %-16s", k.workload, k.metric)
		var meds []float64
		for i := range paths {
			v := sets[i][k]
			q1, q3 := quartiles(v)
			med := median(v)
			meds = append(meds, med)
			fmt.Fprintf(w, " | %5d %12.5g %7.2f%%", len(v), med, 100*(q3-q1)/med)
		}
		if len(paths) == 2 {
			fmt.Fprintf(w, " | %+7.2f%%", 100*(meds[1]-meds[0])/meds[0])
		}
		fmt.Fprintln(w)
	}
	return nil
}
