// Command pmptrace generates synthetic workload traces, converts
// ChampSim/DPC instruction traces, and inspects trace files.
//
// Usage:
//
//	pmptrace -gen spec06.mcf-26 -records 1000000 -o mcf.pmpt
//	pmptrace convert [-o out.pmpt] [-name N] [-skip N] [-limit N]
//	                 [-family F] [-class C] [-verify] mcf.champsim.trace.xz
//	pmptrace info [-verify] [-records] mcf.pmpt
//
// The convert subcommand decodes a ChampSim/DPC-3 instruction trace
// (optionally xz- or gzip-compressed; see docs/traces.md for the field
// mapping) into a .pmpt load trace and prints the decode stats, the
// output's SHA-256, and a ready-to-paste external-manifest snippet.
//
// The info subcommand prints the file header (name, version, record
// count, size); -records additionally streams every record for the
// distribution summary, and -verify reads the file through both the
// lazy FileSource and the buffered Read decoder and compares the two
// record by record. On a ChampSim input (by naming convention, e.g.
// *.champsim.trace.xz) info prints the instruction-stream summary
// instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"pmp/internal/trace"
	"pmp/internal/trace/champsim"
)

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "info":
			err = infoCmd(os.Args[2:])
		case "convert":
			err = convertCmd(os.Args[2:])
		default:
			err = legacyMain()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmptrace:", err)
			os.Exit(1)
		}
		return
	}
	flag.Usage()
	os.Exit(2)
}

// legacyMain handles the flag-style -gen spelling.
func legacyMain() error {
	gen := flag.String("gen", "", "suite trace name to generate (see pmpsim -list-traces)")
	records := flag.Int("records", 1_000_000, "records to generate")
	out := flag.String("o", "", "output file (required with -gen)")
	flag.Parse()

	if *gen == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *out == "" {
		return fmt.Errorf("-gen requires -o")
	}
	return generate(*gen, *records, *out)
}

func generate(name string, records int, out string) error {
	sp, ok := trace.ByName(name)
	if !ok {
		return fmt.Errorf("unknown trace %q", name)
	}
	tr := trace.Collect(sp.New(records), 0)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, tr); err != nil {
		return err
	}
	fmt.Printf("wrote %d records to %s\n", tr.Len(), out)
	return nil
}

// convertCmd implements `pmptrace convert [flags] <champsim-trace>`.
func convertCmd(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("o", "", "output .pmpt path (default: input base name + .pmpt)")
	name := fs.String("name", "", "trace name embedded in the output (default: derived from the input file)")
	skip := fs.Int("skip", 0, "skip the first N load records (fast-forward past initialization)")
	limit := fs.Int("limit", 0, "cap the converted records (0 = all)")
	family := fs.String("family", "external", "manifest family for the printed snippet")
	class := fs.String("class", "medium", "manifest MPKI class for the printed snippet (low|medium|high)")
	verify := fs.Bool("verify", false, "re-read the output through the lazy and buffered decoders and compare")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("convert: expected exactly one ChampSim trace file, got %d args", fs.NArg())
	}
	in := fs.Arg(0)
	if !champsim.IsTracePath(in) {
		fmt.Fprintf(os.Stderr, "pmptrace: warning: %s does not follow ChampSim naming (*.champsim.trace[.xz|.gz]); decoding anyway\n", in)
	}

	if *name == "" {
		*name = champsimBase(in)
	}
	if *out == "" {
		*out = champsimBase(in) + ".pmpt"
	}

	tr, st, err := champsim.ConvertFile(in, champsim.ConvertOptions{Name: *name, Skip: *skip, Limit: *limit})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := trace.Write(f, tr); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	fmt.Printf("converted %s -> %s\n", in, *out)
	fmt.Printf("instructions   %d\n", st.Instructions)
	fmt.Printf("loads          %d (%d load instructions)\n", st.Loads, st.LoadInstrs)
	fmt.Printf("stores         %d\n", st.Stores)
	fmt.Printf("branches       %d\n", st.Branches)
	fmt.Printf("dep prev/chain %d / %d\n", st.DepPrev, st.DepChain)
	if st.ClampedGaps > 0 {
		fmt.Printf("clamped gaps   %d\n", st.ClampedGaps)
	}
	fmt.Printf("written        %d records (skip %d, limit %d)\n", tr.Len(), *skip, *limit)

	if *verify {
		if err := verifyFile(*out); err != nil {
			return err
		}
		fmt.Println("verify         OK (lazy and buffered readers agree)")
	}

	sum, err := trace.FileSHA256(*out)
	if err != nil {
		return err
	}
	fmt.Printf("sha256         %s\n", sum)
	snippet, err := json.MarshalIndent(trace.ExternalSpec{
		Name:    *name,
		Family:  trace.Family(*family),
		Class:   trace.MPKIClass(*class),
		Path:    filepath.Base(*out),
		SHA256:  sum,
		Records: tr.Len(),
	}, "  ", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("manifest entry (add to the \"traces\" list, path relative to the manifest):\n  %s\n", snippet)
	return nil
}

// champsimBase strips the compression and ChampSim naming suffixes:
// "dir/astar.champsim.trace.xz" -> "astar".
func champsimBase(path string) string {
	base := strings.TrimSuffix(champsim.TrimCodec(filepath.Base(path)), ".trace")
	return strings.TrimSuffix(base, ".champsim")
}

// infoCmd implements `pmptrace info [-verify] [-records] <file>`.
func infoCmd(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	verify := fs.Bool("verify", false, "cross-check the lazy FileSource reader against the buffered reader")
	withRecords := fs.Bool("records", false, "decode all records for the distribution summary")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("info: expected exactly one trace file, got %d args", fs.NArg())
	}
	path := fs.Arg(0)

	if champsim.IsTracePath(path) {
		return champsimInfo(path)
	}

	inf, err := trace.Stat(path)
	if err != nil {
		return err
	}
	fmt.Printf("name           %s\n", inf.Name)
	fmt.Printf("format version %d\n", inf.Version)
	fmt.Printf("records        %d\n", inf.Records)
	fmt.Printf("file size      %d bytes\n", inf.SizeBytes)

	if *withRecords {
		if err := printRecordSummary(path); err != nil {
			return err
		}
	}
	if *verify {
		if err := verifyFile(path); err != nil {
			return err
		}
		fmt.Println("verify         OK (lazy and buffered readers agree)")
	}
	return nil
}

// champsimInfo decodes a ChampSim instruction trace and prints the
// stream summary (`pmptrace info` on a not-yet-converted input).
func champsimInfo(path string) error {
	rc, err := champsim.Open(path)
	if err != nil {
		return err
	}
	defer rc.Close()
	d := champsim.NewDecoder(rc)
	for {
		if _, err := d.Next(); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
	}
	st := d.Stats()
	fmt.Printf("format         ChampSim instruction trace (convert with `pmptrace convert`)\n")
	fmt.Printf("instructions   %d\n", st.Instructions)
	fmt.Printf("loads          %d (%d load instructions)\n", st.Loads, st.LoadInstrs)
	fmt.Printf("stores         %d\n", st.Stores)
	fmt.Printf("branches       %d\n", st.Branches)
	fmt.Printf("dep prev/chain %d / %d\n", st.DepPrev, st.DepChain)
	return nil
}

// verifyFile streams the file through the lazy FileSource and the
// buffered Read path and compares every record; the two decoders share
// only the header parser, so agreement certifies both record paths.
func verifyFile(path string) error {
	src, err := trace.OpenFile(path)
	if err != nil {
		return err
	}
	defer src.Close()

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ref, err := trace.Read(f)
	if err != nil {
		return err
	}

	if src.Name() != ref.Name() {
		return fmt.Errorf("verify: name mismatch: lazy %q, buffered %q", src.Name(), ref.Name())
	}
	if src.Len() != ref.Len() {
		return fmt.Errorf("verify: record count mismatch: lazy %d, buffered %d", src.Len(), ref.Len())
	}
	for i, want := range ref.Records() {
		got, ok := src.Next()
		if !ok {
			return fmt.Errorf("verify: lazy reader ended early at record %d of %d", i, ref.Len())
		}
		if got != want {
			return fmt.Errorf("verify: record %d differs: lazy %+v, buffered %+v", i, got, want)
		}
	}
	if _, ok := src.Next(); ok {
		return fmt.Errorf("verify: lazy reader has records past %d", ref.Len())
	}
	return nil
}

func printRecordSummary(path string) error {
	src, err := trace.OpenFile(path)
	if err != nil {
		return err
	}
	defer src.Close()
	var instr, deps uint64
	pcs := map[uint64]struct{}{}
	pages := map[uint64]struct{}{}
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		instr += r.Instructions()
		if r.Dep != trace.DepNone {
			deps++
		}
		pcs[r.PC] = struct{}{}
		pages[r.Addr.PageID()] = struct{}{}
	}
	fmt.Printf("name        %s\n", src.Name())
	fmt.Printf("records     %d (%d instructions)\n", src.Len(), instr)
	fmt.Printf("dependent   %d (%.1f%%)\n", deps, 100*float64(deps)/float64(src.Len()))
	fmt.Printf("static PCs  %d\n", len(pcs))
	fmt.Printf("4KB pages   %d\n", len(pages))
	return nil
}
