// Command fredreport compares two simulator runs and gates on
// regressions.
//
// Usage:
//
//	fredreport [-threshold 0.10] [-csv] reference.json candidate.json
//	fredreport -frombench bench.txt [-o out.json]
//
// The compare form reads two fred-metrics JSON artifacts (written by
// fredsim/fredtrain -metrics, or converted from `go test -bench`
// output with -frombench), matches series by name in the reference's
// order, and prints one delta row per series. A series regresses when
// it declares a preferred direction (better: lower/higher) and the
// candidate moves the wrong way beyond the tolerance — the series' own
// tolerance when it carries one, else -threshold. Reference values of
// zero are compared absolutely (the zero-allocation gates). A directed
// reference series the candidate lacks fails too, so deleting a gated
// benchmark cannot silently un-gate it; undirected series and
// candidate-only series present on one side are noted, never failed.
// The exit status is 1 when any series regressed or went missing, so
// the command drops into CI as a bench-regression gate.
//
// The -frombench form converts `go test -bench -benchmem` output into
// a fred-metrics artifact: one better:lower gauge per benchmark for
// ns/op, B/op and allocs/op, named bench/<Name>/<metric> (the
// -<GOMAXPROCS> suffix is stripped so artifacts from differently
// sized hosts compare).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver with the process boundary injected. Exit
// conventions (shared by every fred binary): 0 clean, 1 a comparison
// that found regressions or unreadable input, 2 bad usage — unknown
// flag or wrong arguments, always with usage on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fredreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	threshold := fs.Float64("threshold", 0.10, "relative tolerance for series without their own")
	csv := fs.Bool("csv", false, "emit the delta table as CSV")
	fromBench := fs.String("frombench", "", "convert `go test -bench` output from this file (- for stdin) to a metrics artifact")
	out := fs.String("o", "", "output path for -frombench (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *fromBench != "" {
		if fs.NArg() != 0 {
			fmt.Fprintf(stderr, "fredreport: unexpected argument %q\n", fs.Arg(0))
			usage(stderr)
			return 2
		}
		if err := convert(*fromBench, *out, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "fredreport:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() != 2 {
		usage(stderr)
		return 2
	}
	code, err := compare(fs.Arg(0), fs.Arg(1), *threshold, *csv, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "fredreport:", err)
		return 1
	}
	return code
}

// compare renders the delta table of two artifact files to w and
// returns the exit code: 0 clean, 1 with regressions.
func compare(refPath, candPath string, threshold float64, csv bool, w io.Writer) (int, error) {
	ref, err := metrics.ReadFile(refPath)
	if err != nil {
		return 0, err
	}
	cand, err := metrics.ReadFile(candPath)
	if err != nil {
		return 0, err
	}
	deltas := metrics.Compare(ref, cand, threshold)
	tbl := deltaTable(deltas, refPath, candPath, threshold)
	if ref.Manifest.EngineVersion != cand.Manifest.EngineVersion {
		tbl.AddNote("engine versions differ: %s vs %s",
			ref.Manifest.EngineVersion, cand.Manifest.EngineVersion)
	}
	if csv {
		fmt.Fprint(w, tbl.CSV())
	} else {
		fmt.Fprintln(w, tbl)
	}
	code := 0
	if n := metrics.Regressions(deltas); n > 0 {
		fmt.Fprintf(w, "fredreport: %d series regressed\n", n)
		code = 1
	}
	if n := metrics.MissingGated(deltas); n > 0 {
		fmt.Fprintf(w, "fredreport: %d gated series missing from the candidate\n", n)
		code = 1
	}
	return code, nil
}

// deltaTable renders comparison rows; gated rows (ok / regression /
// improved) first would reorder the reference's series order, so rows
// stay in match order and the verdict column carries the judgement.
func deltaTable(deltas []metrics.Delta, refPath, candPath string, threshold float64) *report.Table {
	tbl := &report.Table{
		Title:  fmt.Sprintf("Metrics delta: %s -> %s", refPath, candPath),
		Header: []string{"series", "reference", "candidate", "delta", "verdict"},
	}
	missing, added := 0, 0
	for _, d := range deltas {
		switch d.Verdict {
		case metrics.VerdictMissing:
			if d.Better != "" {
				tbl.AddRow(d.Name, formatVal(d.Old, d.Unit), "-", "-", string(d.Verdict))
				continue
			}
			missing++
			continue
		case metrics.VerdictNew:
			added++
			continue
		}
		delta := fmt.Sprintf("%+.2f%%", d.Rel*100)
		if d.AbsBase {
			delta = fmt.Sprintf("%+.4g", d.Rel)
		}
		tbl.AddRow(d.Name, formatVal(d.Old, d.Unit), formatVal(d.New, d.Unit),
			delta, string(d.Verdict))
	}
	if missing > 0 {
		tbl.AddNote("%d undirected reference series absent from the candidate (not failed)", missing)
	}
	if added > 0 {
		tbl.AddNote("%d candidate series absent from the reference (not failed)", added)
	}
	tbl.AddNote("default tolerance ±%.0f%%; series with their own tolerance override it", threshold*100)
	return tbl
}

func formatVal(v float64, unit string) string {
	if unit == "B" {
		return report.FormatBytes(v)
	}
	s := fmt.Sprintf("%.6g", v)
	if unit != "" {
		s += " " + unit
	}
	return s
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
//
//	BenchmarkRecompute-4   272690   8780 ns/op   0 B/op   0 allocs/op
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// convert parses benchmark output and writes the equivalent metrics
// artifact.
func convert(benchPath, outPath string, stdout, stderr io.Writer) error {
	var in io.Reader
	if benchPath == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	reg, n, err := parseBench(in)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no benchmark result lines in %s", benchPath)
	}
	art := reg.Export(metrics.Manifest{Tool: "fredreport", Command: "-frombench " + benchPath})
	if outPath == "" {
		data, err := art.Encode()
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	}
	if err := art.WriteFile(outPath); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fredreport: converted %d benchmarks to %s\n", n, outPath)
	return nil
}

// parseBench scans benchmark output into a registry of better:lower
// gauges and returns the benchmark count.
func parseBench(in io.Reader) (*metrics.Registry, int, error) {
	reg := metrics.NewRegistry()
	n := 0
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		n++
		prefix := "bench/" + m[1] + "/"
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
		}
		reg.Gauge(prefix+"ns_per_op", "ns/op").SetBetter("lower").Set(ns)
		if m[3] != "" {
			b, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad B/op in %q: %v", sc.Text(), err)
			}
			reg.Gauge(prefix+"bytes_per_op", "B/op").SetBetter("lower").Set(b)
		}
		if m[4] != "" {
			a, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, 0, fmt.Errorf("bad allocs/op in %q: %v", sc.Text(), err)
			}
			reg.Gauge(prefix+"allocs_per_op", "allocs/op").SetBetter("lower").Set(a)
		}
	}
	return reg, n, sc.Err()
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: fredreport [-threshold 0.10] [-csv] reference.json candidate.json
       fredreport -frombench bench.txt [-o out.json]`)
}
