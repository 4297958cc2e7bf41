// Command sdtw computes DTW and sDTW distances between time series read
// from UCR-format text files (label first, comma- or space-separated
// values, one series per line).
//
// Usage:
//
//	sdtw -file data.txt -i 0 -j 1                 # exact DTW between rows 0 and 1
//	sdtw -file data.txt -i 0 -j 1 -strategy ac,aw # sDTW with adaptive constraints
//	sdtw -file data.txt -query 0 -k 5             # top-5 retrieval for row 0
//	sdtw -file data.txt -features 0               # salient features of row 0
//
// Strategies: dtw (full grid), fc,fw; fc,aw; ac,fw; ac,aw; ac2,aw.
//
// The monitor subcommand streams whitespace-separated values from a file
// or stdin through the Monitor API and reports subsequence matches of the
// query rows as they are confirmed:
//
//	sdtw monitor -queries data.txt -rows 0,1 -threshold 12.5 < stream.txt
//	sdtwgen ... | sdtw monitor -queries data.txt -stream -
//	sdtw monitor -queries data.txt -stream stream.txt   # best match only
//
// The fsck subcommand verifies (and with -repair, repairs) a segment
// store or sharded store root after a crash or suspected corruption:
//
//	sdtw fsck idx.store
//	sdtw fsck -repair cluster.store
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"sdtw"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "monitor" {
		if err := runMonitor(os.Args[2:], os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "fsck" {
		if err := runFsck(os.Args[2:], os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	runClassic()
}

func runClassic() {
	var (
		file      = flag.String("file", "", "UCR-format input file (required)")
		i         = flag.Int("i", 0, "index of the first series")
		j         = flag.Int("j", 1, "index of the second series")
		strategy  = flag.String("strategy", "dtw", "constraint strategy: dtw, fc,fw, fc,aw, ac,fw, ac,aw, ac2,aw")
		width     = flag.Float64("width", 0.10, "band width fraction for fixed-width strategies")
		query     = flag.Int("query", -1, "run top-k retrieval for this series index instead of a pairwise distance")
		k         = flag.Int("k", 5, "number of neighbours for -query")
		features  = flag.Int("features", -1, "print the salient features of this series index and exit")
		symmetric = flag.Bool("symmetric", false, "use the symmetric band union (order-independent distance)")
	)
	flag.Parse()

	if *file == "" {
		fatal(fmt.Errorf("-file is required"))
	}
	f, err := os.Open(*file)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	data, err := sdtw.ReadUCR(f, *file)
	if err != nil {
		fatal(err)
	}

	opts, err := optionsFor(*strategy, *width, *symmetric)
	if err != nil {
		fatal(err)
	}

	switch {
	case *features >= 0:
		if err := printFeatures(data, *features); err != nil {
			fatal(err)
		}
	case *query >= 0:
		if err := runQuery(data, *query, *k, opts); err != nil {
			fatal(err)
		}
	default:
		if err := runPair(data, *i, *j, opts); err != nil {
			fatal(err)
		}
	}
}

func optionsFor(strategy string, width float64, symmetric bool) (sdtw.Options, error) {
	opts := sdtw.Options{WidthFrac: width, Symmetric: symmetric}
	switch strings.ToLower(strategy) {
	case "dtw", "full":
		opts.Strategy = sdtw.FullGrid
	case "fc,fw", "sakoe", "sakoe-chiba":
		opts.Strategy = sdtw.FixedCoreFixedWidth
	case "fc,aw":
		opts.Strategy = sdtw.FixedCoreAdaptiveWidth
	case "ac,fw":
		opts.Strategy = sdtw.AdaptiveCoreFixedWidth
	case "ac,aw":
		opts.Strategy = sdtw.AdaptiveCoreAdaptiveWidth
	case "ac2,aw":
		opts.Strategy = sdtw.AdaptiveCoreAdaptiveWidthAvg
	default:
		return opts, fmt.Errorf("unknown strategy %q", strategy)
	}
	return opts, nil
}

func checkIndex(data *sdtw.Dataset, idx int) error {
	if idx < 0 || idx >= data.Len() {
		return fmt.Errorf("series index %d outside [0,%d)", idx, data.Len())
	}
	return nil
}

func runPair(data *sdtw.Dataset, i, j int, opts sdtw.Options) error {
	if err := checkIndex(data, i); err != nil {
		return err
	}
	if err := checkIndex(data, j); err != nil {
		return err
	}
	eng := sdtw.NewEngine(opts)
	res, err := eng.Distance(data.Series[i].Values, data.Series[j].Values)
	if err != nil {
		return err
	}
	fmt.Printf("distance(%s, %s) = %g\n", data.Series[i].ID, data.Series[j].ID, res.Distance)
	fmt.Printf("strategy=%v cells=%d/%d (gain %.3f) pairs=%d\n",
		opts.Strategy, res.CellsFilled, res.GridCells, res.CellsGain(), res.Pairs)
	if opts.Strategy != sdtw.FullGrid {
		exact, err := sdtw.DTW(data.Series[i].Values, data.Series[j].Values)
		if err != nil {
			return err
		}
		rel := 0.0
		if exact > 0 {
			rel = (res.Distance - exact) / exact
		}
		fmt.Printf("exact DTW = %g (over-estimation %.3f%%)\n", exact, 100*rel)
	}
	return nil
}

func runQuery(data *sdtw.Dataset, q, k int, opts sdtw.Options) error {
	if err := checkIndex(data, q); err != nil {
		return err
	}
	idx, err := sdtw.NewIndex(data.Series, opts)
	if err != nil {
		return err
	}
	nbrs, _, err := idx.Search(context.Background(), data.Series[q], sdtw.WithK(k))
	if err != nil {
		return err
	}
	fmt.Printf("top-%d neighbours of %s (label %d):\n", k, data.Series[q].ID, data.Series[q].Label)
	for rank, nb := range nbrs {
		fmt.Printf("%3d. %-20s label=%-3d distance=%g\n", rank+1, nb.ID, nb.Label, nb.Distance)
	}
	labels, err := idx.Labels(context.Background(), data.Series[q], sdtw.WithK(k))
	if err != nil {
		return err
	}
	fmt.Printf("kNN label set: %v\n", labels)
	return nil
}

func printFeatures(data *sdtw.Dataset, idx int) error {
	if err := checkIndex(data, idx); err != nil {
		return err
	}
	feats, err := sdtw.ExtractFeatures(data.Series[idx].Values)
	if err != nil {
		return err
	}
	fmt.Printf("%d salient features on %s:\n", len(feats), data.Series[idx].ID)
	fmt.Printf("%6s %8s %7s %8s %10s %10s\n", "pos", "sigma", "octave", "scope", "response", "amplitude")
	for _, f := range feats {
		fmt.Printf("%6d %8.2f %7d %8.1f %+10.4f %10.4f\n", f.X, f.Sigma, f.Octave, f.Scope, f.Response, f.Amplitude)
	}
	return nil
}

// runMonitor is the monitor subcommand: it builds a streaming Monitor
// over the selected query rows and pushes the stream through it in
// batches, printing matches as they are confirmed and a work summary at
// end-of-stream.
func runMonitor(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	var (
		queryFile = fs.String("queries", "", "UCR-format file holding the query patterns (required)")
		rows      = fs.String("rows", "0", "comma-separated row indices of the queries to monitor")
		stream    = fs.String("stream", "-", "stream source: a file of whitespace-separated values, or - for stdin")
		threshold = fs.Float64("threshold", 0, "emit every non-overlapping match at distance <= threshold (0 means report only the best match at end-of-stream)")
		gap       = fs.Int("gap", 0, "minimum stream points between an emitted match's end and the next match's start")
		workers   = fs.Int("workers", 0, "worker pool width for multi-query fan-out (0 = GOMAXPROCS)")
		batch     = fs.Int("batch", 256, "points per PushBatch call")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queryFile == "" {
		return fmt.Errorf("monitor: -queries is required")
	}
	if *batch < 1 {
		return fmt.Errorf("monitor: -batch must be >= 1, got %d", *batch)
	}
	f, err := os.Open(*queryFile)
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := sdtw.ReadUCR(f, *queryFile)
	if err != nil {
		return err
	}
	var queries []sdtw.Series
	for _, field := range strings.Split(*rows, ",") {
		idx, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil {
			return fmt.Errorf("monitor: bad -rows entry %q: %w", field, err)
		}
		if err := checkIndex(data, idx); err != nil {
			return err
		}
		queries = append(queries, data.Series[idx])
	}

	mopts := []sdtw.MonitorOption{sdtw.WithMonitorWorkers(*workers), sdtw.WithMinGap(*gap)}
	if *threshold > 0 {
		mopts = append(mopts, sdtw.WithMatchThreshold(*threshold))
	}
	mon, err := sdtw.NewMonitor(queries, sdtw.Options{}, mopts...)
	if err != nil {
		return err
	}

	var src io.Reader = stdin
	if *stream != "-" {
		sf, err := os.Open(*stream)
		if err != nil {
			return err
		}
		defer sf.Close()
		src = sf
	}

	ctx := context.Background()
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	sc.Split(bufio.ScanWords)
	buf := make([]float64, 0, *batch)
	push := func() error {
		if len(buf) == 0 {
			return nil
		}
		matches, err := mon.PushBatch(ctx, buf)
		if err != nil {
			return err
		}
		printMatches(stdout, matches)
		buf = buf[:0]
		return nil
	}
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			return fmt.Errorf("monitor: bad stream value %q: %w", sc.Text(), err)
		}
		if buf = append(buf, v); len(buf) == *batch {
			if err := push(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("monitor: reading stream: %w", err)
	}
	if err := push(); err != nil {
		return err
	}
	final, err := mon.Flush()
	if err != nil {
		return err
	}
	if *threshold <= 0 && len(final) > 0 {
		fmt.Fprintln(stdout, "best matches at end-of-stream:")
	}
	printMatches(stdout, final)

	st := mon.Stats()
	cellsPerPoint := 0.0
	if st.Points > 0 {
		cellsPerPoint = float64(st.Cells) / float64(st.Points)
	}
	fmt.Fprintf(stdout, "stream done: %d points, %d matches, %.0f DP cells/point, %v in Push\n",
		st.Points, st.Matches, cellsPerPoint, st.PushTime.Round(time.Microsecond))
	for _, q := range st.PerQuery {
		fmt.Fprintf(stdout, "  query %-16s matches=%d cells=%d time=%v\n",
			label(q.QueryID), q.Matches, q.Cells, q.Time.Round(time.Microsecond))
	}
	return nil
}

// printMatches renders emitted matches one per line, in stream order.
func printMatches(w io.Writer, matches []sdtw.Match) {
	for _, m := range matches {
		fmt.Fprintf(w, "match query=%s [%d,%d] distance=%g\n", label(m.QueryID), m.Start, m.End, m.Distance)
	}
}

// label makes empty query IDs visible in output.
func label(id string) string {
	if id == "" {
		return "(unnamed)"
	}
	return id
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdtw:", err)
	os.Exit(1)
}
