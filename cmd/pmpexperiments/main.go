// Command pmpexperiments runs the paper-reproduction experiment
// harness and prints each table/figure in DESIGN.md's experiment index.
//
// All requested experiments are submitted to a shared sweep scheduler
// up front (see docs/sweep.md): their per-trace simulations execute on
// one bounded worker pool, identical jobs are deduplicated across
// experiments, and tables print in index order as their jobs complete.
// With -store the per-job results persist to an append-only JSONL
// store, and -resume skips every job already completed there, so an
// interrupted run (Ctrl-C flushes the store before exit) picks up
// where it left off. Rendered tables are byte-identical to a serial
// run at the same scale.
//
// With -remote the per-trace simulations are submitted to a running
// pmpsweepd coordinator instead of the in-process pool: the
// coordinator deduplicates them in its own sweep and leases them to
// its workers, and this process polls for the records and renders the
// same tables. The results store then lives with the coordinator, so
// -store/-resume/-workers are rejected client-side.
//
// A store append, store close or manifest write that fails is
// reported at the end, and the command exits 1.
//
// Usage:
//
//	pmpexperiments [-scale quick|default|full] [-exp ID[,ID...]] [-list]
//	               [-manifest traces.json] [-store file.jsonl [-resume]]
//	               [-workers N] [-job-timeout d] [-retries N] [-csv dir]
//	               [-remote coordinator:port [-auth-token secret]]
//
// With -manifest the external-suite manifest's converted traces (see
// docs/traces.md and `pmptrace convert`) register next to the
// synthetic suite and the EXTW experiment — the full prefetcher
// registry over those traces — joins the index.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pmp/internal/bench"
	"pmp/internal/prof"
	"pmp/internal/sweep"
	"pmp/internal/sweep/remote"
	"pmp/internal/trace"
)

// experiment is one registry entry: an experiment ID, its description
// for -list, and the table builder (bound to a runner/scale in main).
type experiment struct {
	id   string
	desc string
	run  func() *bench.Table
}

// registry returns the experiment index in DESIGN.md order. ext is
// the external trace set loaded from -manifest; when non-empty it
// appends the EXTW experiment over those traces.
func registry(r *bench.Runner, scale bench.Scale, ext []trace.Spec) []experiment {
	index := experiments(r, scale)
	if len(ext) > 0 {
		index = append(index, experiment{
			"EXTW", "extension: external workloads from -manifest",
			func() *bench.Table { return bench.External(r.WithSpecs(ext)) },
		})
	}
	return index
}

func experiments(r *bench.Runner, scale bench.Scale) []experiment {
	return []experiment{
		{"T1", "Table I: pattern collision/duplicate rates", func() *bench.Table { return bench.TableI(scale) }},
		{"F2", "Fig 2: pattern frequency concentration", func() *bench.Table { return bench.Fig2(scale) }},
		{"F4", "Fig 4: ICDD per clustering feature", func() *bench.Table { return bench.Fig4(scale) }},
		{"F5", "Fig 5: pattern heat maps", func() *bench.Table { return bench.Fig5(scale) }},
		{"T3", "Tables II/III/V: storage overhead", bench.Storage},
		{"F8", "Fig 8: single-core NIPC", func() *bench.Table { return bench.Fig8(r) }},
		{"F9", "Fig 9: coverage and accuracy", func() *bench.Table { return bench.Fig9(r) }},
		{"F10", "Fig 10: useful/useless prefetches", func() *bench.Table { return bench.Fig10(r) }},
		{"NMT", "§V-D: normalized memory traffic", func() *bench.Table { return bench.NMT(r) }},
		{"T8", "Table VIII: Design B ways sweep", func() *bench.Table { return bench.TableVIII(r) }},
		{"EXT", "§V-E2: extraction schemes", func() *bench.Table { return bench.Extraction(r) }},
		{"MF", "§V-E3: multi-feature structures", func() *bench.Table { return bench.MultiFeature(r) }},
		{"T9", "Table IX: pattern length sweep", func() *bench.Table { return bench.TableIX(r) }},
		{"T10a", "Table X: trigger offset width sweep", func() *bench.Table { return bench.TableXOffsetWidth(r) }},
		{"T10b", "Table X: counter size sweep", func() *bench.Table { return bench.TableXCounterSize(r) }},
		{"T11", "Table XI: monitoring range sweep", func() *bench.Table { return bench.TableXI(r) }},
		{"F12a", "Fig 12a: bandwidth sensitivity", func() *bench.Table { return bench.Fig12Bandwidth(r) }},
		{"F12b", "Fig 12b: LLC size sensitivity", func() *bench.Table { return bench.Fig12LLC(r) }},
		{"F13", "Fig 13: 4-core performance", func() *bench.Table { return bench.Fig13(r) }},
		{"ABL", "extension: PMP mechanism ablations", func() *bench.Table { return bench.Ablations(r) }},
		{"REL", "extension: related-work prefetchers (§VI)", func() *bench.Table { return bench.Related(r) }},
		{"PLC", "§V-B: PMP@L1 vs original Bingo@LLC placement", func() *bench.Table { return bench.Placement(r) }},
		{"INC", "extension: inclusion policy and hierarchy depth", func() *bench.Table { return bench.Inclusion(r) }},
		{"THR", "extension: AFE threshold sweep", func() *bench.Table { return bench.Thresholds(r) }},
		{"HETS", "extension: heterogeneous stacking (PMP@L1D + Bingo deeper)", func() *bench.Table { return bench.HETS(r) }},
		{"HETM", "extension: 8-core heterogeneous trace mixes", func() *bench.Table { return bench.HETM(r) }},
		{"HETH", "extension: 2-/3-/4-level hierarchy depth", func() *bench.Table { return bench.HETH(r) }},
		{"HETB", "extension: stacked prefetchers vs DRAM bandwidth", func() *bench.Table { return bench.HETB(r) }},
	}
}

// expResult carries one finished experiment back to the printer.
type expResult struct {
	tbl *bench.Table // nil when the sweep was interrupted
	dur time.Duration
}

func main() {
	scaleFlag := flag.String("scale", "default", "experiment scale: quick, default or full")
	expFlag := flag.String("exp", "", "comma-separated experiment IDs (default: all); see -list")
	listFlag := flag.Bool("list", false, "list experiment IDs and exit")
	csvDir := flag.String("csv", "", "also write each experiment as <dir>/<ID>.csv")
	manifestPath := flag.String("manifest", "", "external-suite manifest of converted traces (docs/traces.md); enables the EXTW experiment")
	storePath := flag.String("store", "", "persist per-job results to this append-only JSONL store")
	resumeFlag := flag.Bool("resume", false, "skip jobs already completed in -store (requires -store)")
	remoteAddr := flag.String("remote", "", "submit jobs to a running pmpsweepd coordinator at this address")
	authToken := flag.String("auth-token", "", "shared-secret bearer token for a -remote coordinator started with -auth-token")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "sweep worker pool size")
	jobTimeout := flag.Duration("job-timeout", 30*time.Minute, "per-job attempt timeout (0 = none)")
	retries := flag.Int("retries", 2, "attempts per job before quarantine")
	progressFlag := flag.Bool("progress", true, "report sweep progress on stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmpexperiments:", err)
		os.Exit(1)
	}
	defer stopProf()

	var scale bench.Scale
	switch *scaleFlag {
	case "quick":
		scale = bench.QuickScale()
	case "default":
		scale = bench.DefaultScale()
	case "full":
		scale = bench.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	var extSpecs []trace.Spec
	if *manifestPath != "" {
		extSpecs, err = trace.LoadManifest(*manifestPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmpexperiments:", err)
			os.Exit(1)
		}
	}

	// The registry is built twice: once against a throwaway runner for
	// -list and -exp validation (nothing simulates until a builder
	// runs), and again below bound to the sweep-backed runner.
	index := registry(bench.NewRunner(scale), scale, extSpecs)
	if *listFlag {
		for _, e := range index {
			fmt.Printf("%-5s %s\n", e.id, e.desc)
		}
		return
	}

	known := map[string]bool{}
	for _, e := range index {
		known[e.id] = true
	}
	want := map[string]bool{}
	if *expFlag != "" {
		var unknown []string
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			// "HET" selects the whole heterogeneous-hierarchy family.
			if id == "HET" {
				for _, h := range []string{"HETS", "HETM", "HETH", "HETB"} {
					want[h] = true
				}
				continue
			}
			if !known[id] {
				unknown = append(unknown, id)
				continue
			}
			want[id] = true
		}
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment id(s): %s (see -list for valid IDs)\n",
				strings.Join(unknown, ", "))
			os.Exit(2)
		}
		if len(want) == 0 {
			fmt.Fprintln(os.Stderr, "-exp selected no experiments (see -list)")
			os.Exit(2)
		}
	}

	if *resumeFlag && *storePath == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -store")
		os.Exit(2)
	}
	workersSet := false
	flag.Visit(func(f *flag.Flag) { workersSet = workersSet || f.Name == "workers" })
	if *remoteAddr != "" && (*storePath != "" || *resumeFlag || workersSet) {
		fmt.Fprintln(os.Stderr, "-remote runs keep the store with the coordinator; drop -store/-resume/-workers")
		os.Exit(2)
	}
	if *remoteAddr == "" && *workers < 1 {
		fmt.Fprintf(os.Stderr, "-workers must be at least 1, got %d\n", *workers)
		os.Exit(2)
	}
	var store *sweep.Store
	if *storePath != "" {
		store, err = sweep.OpenStore(*storePath, *resumeFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmpexperiments:", err)
			os.Exit(1)
		}
		if *resumeFlag {
			fmt.Fprintf(os.Stderr, "sweep: resuming from %s (%d records", *storePath, store.Loaded())
			if n := store.Skipped(); n > 0 {
				fmt.Fprintf(os.Stderr, ", %d malformed lines skipped", n)
			}
			fmt.Fprintln(os.Stderr, ")")
		}
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	var sw *sweep.Sweep
	var r *bench.Runner
	if *remoteAddr != "" {
		rc := remote.NewClient(*remoteAddr)
		rc.Token = *authToken
		if _, err := rc.Status(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "pmpexperiments: coordinator %s: %v\n", *remoteAddr, err)
			os.Exit(1)
		}
		r = bench.NewRunnerRemote(ctx, scale, rc)
		if *progressFlag {
			go remoteProgress(ctx, rc)
		}
	} else {
		opts := sweep.Options{
			Workers:     *workers,
			MaxAttempts: *retries,
			JobTimeout:  *jobTimeout,
			Store:       store,
		}
		if *progressFlag {
			opts.Progress = sweep.WriterProgress(os.Stderr)
		}
		sw = sweep.New(ctx, opts)
		r = bench.NewRunnerWith(scale, sw)
	}
	index = registry(r, scale, extSpecs)

	var selected []experiment
	for _, e := range index {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		selected = append(selected, e)
	}

	// Launch every selected experiment up front; each builder submits
	// its simulations to the shared sweep and assembles its table when
	// they complete. Tables print in index order as they become ready.
	results := make([]chan expResult, len(selected))
	for i, e := range selected {
		ch := make(chan expResult, 1)
		results[i] = ch
		go func() {
			t0 := time.Now()
			defer func() {
				if p := recover(); p != nil {
					if _, ok := p.(sweep.Interrupted); ok {
						ch <- expResult{nil, time.Since(t0)}
						return
					}
					panic(p)
				}
			}()
			ch <- expResult{e.run(), time.Since(t0)}
		}()
	}

	interrupted := false
	for i, e := range selected {
		res := <-results[i]
		if res.tbl == nil {
			interrupted = true
			break
		}
		fmt.Println(res.tbl)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "csv: %v\n", err)
			} else {
				path := filepath.Join(*csvDir, e.id+".csv")
				if err := os.WriteFile(path, []byte(res.tbl.CSV()), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "csv: %v\n", err)
				}
			}
		}
		fmt.Printf("-- %s completed in %v --\n\n", e.id, res.dur.Round(time.Millisecond))
	}

	storeErrs := 0
	if sw != nil {
		m := sw.Close()
		storeErrs = m.StoreErrors
		if store != nil {
			fmt.Fprintf(os.Stderr, "sweep: store %s: %d new, %d cached, %d quarantined",
				store.Path(), m.Completed, m.Cached, m.Quarantined)
			if storeErrs > 0 {
				fmt.Fprintf(os.Stderr, ", %d store errors (results or manifest not persisted)\n", storeErrs)
			} else {
				fmt.Fprintf(os.Stderr, " (manifest: %s)\n", store.ManifestPath())
			}
		}
	}
	if interrupted {
		if *remoteAddr != "" {
			fmt.Fprintln(os.Stderr, "interrupted: submitted jobs keep running on the coordinator; re-run -remote to re-attach")
		} else {
			fmt.Fprintln(os.Stderr, "interrupted: results store flushed; re-run with -resume to continue")
		}
		os.Exit(130)
	}
	fmt.Printf("total elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	if storeErrs > 0 {
		os.Exit(1)
	}
}

// remoteProgress renders the coordinator's sweep snapshot every 5s
// while a -remote run is in flight.
func remoteProgress(ctx context.Context, rc *remote.Client) {
	report := sweep.WriterProgress(os.Stderr)
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			st, err := rc.Status(ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "remote: status: %v\n", err)
				continue
			}
			report(st.Snapshot, false)
		}
	}
}
