// Command benchdiff compares two `go test -bench` output files in the style
// of benchstat, using only the standard library (the container bakes no
// external tooling). scripts/benchdiff.sh drives it to diff the working
// tree's kernel benchmarks against a baseline git ref.
//
// Usage:
//
//	benchdiff [-fail-over PCT] old.txt new.txt
//
// Each input is the stdout of `go test -bench ... [-count N]`. Samples of
// the same benchmark are aggregated by median (robust to the odd noisy
// run); the report shows each side's median with its [min–max] range and
// the delta of the medians per metric. A delta whose two ranges overlap is
// marked "unresolved": the runs cannot tell the sides apart. With
// -fail-over > 0 the exit code is 1 if any time metric (ns/op, or the
// kernel benchmarks' custom ns/interaction and ns/firing) regressed by
// more than that percentage — the CI-gate mode.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// sampleSet holds all samples of one (benchmark, unit) pair.
type sampleSet map[string]map[string][]float64 // name → unit → samples

// parseBench reads `go test -bench` output. Benchmark lines look like:
//
//	BenchmarkBatchStep-8   9573058   114.9 ns/op   16 B/op   1 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so runs from different machines
// still line up.
func parseBench(path string) (sampleSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := sampleSet{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			unit := fields[i+1]
			if out[name] == nil {
				out[name] = map[string][]float64{}
			}
			out[name][unit] = append(out[name][unit], v)
		}
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary renders a side's median and its [min–max] range — a spread that
// needs no distribution assumptions.
func summary(xs []float64) string {
	return fmt.Sprintf("%s [%s–%s]", num(median(xs)), num(slices.Min(xs)), num(slices.Max(xs)))
}

// num formats one value: two decimals from 1 up, and three significant
// digits below 1, so a per-interaction cost of 0.00014 ns stays readable.
func num(v float64) string {
	if v == 0 || math.Abs(v) >= 1 {
		return fmt.Sprintf("%.2f", v)
	}
	return strconv.FormatFloat(v, 'f', 2-int(math.Floor(math.Log10(math.Abs(v)))), 64)
}

// timeUnit reports whether a metric unit is one the -fail-over gate
// covers: the standard ns/op plus the kernel benchmarks' per-activation
// ns/interaction and per-firing ns/firing (see bench_kernel_test.go).
// Allocation metrics stay report-only — alloc deltas are intentional far
// more often than time deltas, and the kernel gate is about latency.
func timeUnit(u string) bool {
	return u == "ns/op" || u == "ns/interaction" || u == "ns/firing"
}

func main() {
	failOver := flag.Float64("fail-over", 0, "exit 1 if any ns/op, ns/interaction or ns/firing metric regresses by more than this percent (0 = report only)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-fail-over PCT] old.txt new.txt")
		os.Exit(2)
	}
	if *failOver < 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: -fail-over must be ≥ 0")
		os.Exit(2)
	}
	old, err := parseBench(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	cur, err := parseBench(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}

	units := map[string]bool{}
	names := map[string]bool{}
	for n, m := range old {
		names[n] = true
		for u := range m {
			units[u] = true
		}
	}
	for n, m := range cur {
		names[n] = true
		for u := range m {
			units[u] = true
		}
	}
	unitOrder := make([]string, 0, len(units))
	for u := range units {
		unitOrder = append(unitOrder, u)
	}
	// Gated time metrics first, then the allocation metrics alphabetically.
	sort.Slice(unitOrder, func(i, j int) bool {
		if timeUnit(unitOrder[i]) != timeUnit(unitOrder[j]) {
			return timeUnit(unitOrder[i])
		}
		return unitOrder[i] < unitOrder[j]
	})
	nameOrder := make([]string, 0, len(names))
	for n := range names {
		nameOrder = append(nameOrder, n)
	}
	sort.Strings(nameOrder)

	regressed := false
	for _, u := range unitOrder {
		rows := [][4]string{}
		for _, n := range nameOrder {
			o, haveOld := old[n][u]
			c, haveNew := cur[n][u]
			if !haveOld && !haveNew {
				continue
			}
			row := [4]string{n, "—", "—", "—"}
			if haveOld {
				row[1] = summary(o)
			}
			if haveNew {
				row[2] = summary(c)
			}
			if haveOld && haveNew && median(o) != 0 {
				delta := (median(c) - median(o)) / median(o) * 100
				row[3] = fmt.Sprintf("%+.1f%%", delta)
				if slices.Min(o) <= slices.Max(c) && slices.Min(c) <= slices.Max(o) {
					row[3] += " unresolved"
				}
				if timeUnit(u) && *failOver > 0 && delta > *failOver {
					regressed = true
					row[3] += " !"
				}
			}
			rows = append(rows, row)
		}
		if len(rows) == 0 {
			continue
		}
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "%s\told\tnew\tdelta\n", u)
		for _, r := range rows {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r[0], r[1], r[2], r[3])
		}
		tw.Flush()
		fmt.Println()
	}
	if regressed {
		fmt.Fprintf(os.Stderr, "benchdiff: ns/op, ns/interaction or ns/firing regression beyond %.1f%%\n", *failOver)
		os.Exit(1)
	}
}
