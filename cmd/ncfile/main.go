// Command ncfile stores files as network-coded containers: any
// sufficiently large subset of intact records recovers the file, so
// dropped or corrupted records only consume redundancy.
//
// Usage:
//
//	ncfile encode  -in report.pdf -out report.xnc -n 32 -k 4096 -redundancy 1.2
//	ncfile corrupt -in report.xnc -out damaged.xnc -drop 0.1 -flip 0.05
//	ncfile decode  -in damaged.xnc -out report2.pdf
package main

import (
	"flag"
	"fmt"
	"os"

	"extremenc/internal/ncfile"
	"extremenc/internal/rlnc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ncfile:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: ncfile encode|decode|corrupt [flags]")
	}
	switch args[0] {
	case "encode":
		return runEncode(args[1:])
	case "decode":
		return runDecode(args[1:])
	case "corrupt":
		return runCorrupt(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// openPair opens the -in and -out files.
func openPair(inPath, outPath string) (in, out *os.File, err error) {
	in, err = os.Open(inPath)
	if err != nil {
		return nil, nil, err
	}
	out, err = os.Create(outPath)
	if err != nil {
		in.Close()
		return nil, nil, err
	}
	return in, out, nil
}

func runEncode(args []string) error {
	fs := flag.NewFlagSet("ncfile encode", flag.ContinueOnError)
	inPath := fs.String("in", "", "input payload file")
	outPath := fs.String("out", "", "output container file")
	n := fs.Int("n", 32, "blocks per segment")
	k := fs.Int("k", 4096, "bytes per block")
	redundancy := fs.Float64("redundancy", 1.15, "coded blocks per source block (≥ 1)")
	seeded := fs.Bool("seeded", false, "store a 4-byte record index instead of each n-byte coefficient vector")
	seed := fs.Int64("seed", 1, "PRNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" || *outPath == "" {
		return fmt.Errorf("encode requires -in and -out")
	}
	in, out, err := openPair(*inPath, *outPath)
	if err != nil {
		return err
	}
	defer in.Close()
	defer out.Close()

	sum, err := ncfile.Encode(out, in, rlnc.Params{BlockCount: *n, BlockSize: *k},
		ncfile.EncodeOptions{Redundancy: *redundancy, Seeded: *seeded, Seed: *seed})
	if err != nil {
		return err
	}
	overhead := float64(sum.RecordBytes)/float64(sum.PayloadBytes) - 1
	fmt.Printf("encoded %d bytes → %d records in %d segments (n=%d, k=%d, %+.1f%% overhead)\n",
		sum.PayloadBytes, sum.Records, sum.Header.Segments, *n, *k, overhead*100)
	return out.Sync()
}

func runDecode(args []string) error {
	fs := flag.NewFlagSet("ncfile decode", flag.ContinueOnError)
	inPath := fs.String("in", "", "input container file")
	outPath := fs.String("out", "", "output payload file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" || *outPath == "" {
		return fmt.Errorf("decode requires -in and -out")
	}
	in, out, err := openPair(*inPath, *outPath)
	if err != nil {
		return err
	}
	defer in.Close()
	defer out.Close()

	sum, err := ncfile.Decode(out, in)
	if err != nil {
		return err
	}
	fmt.Printf("decoded %d bytes from %d records (%d corrupt skipped, %d dependent)\n",
		sum.Header.Length, sum.Records, sum.CorruptRecords, sum.Dependent)
	return out.Sync()
}

func runCorrupt(args []string) error {
	fs := flag.NewFlagSet("ncfile corrupt", flag.ContinueOnError)
	inPath := fs.String("in", "", "input container file")
	outPath := fs.String("out", "", "output damaged container")
	drop := fs.Float64("drop", 0.1, "record drop probability")
	flip := fs.Float64("flip", 0.0, "record byte-flip probability")
	seed := fs.Int64("seed", 1, "PRNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" || *outPath == "" {
		return fmt.Errorf("corrupt requires -in and -out")
	}
	in, out, err := openPair(*inPath, *outPath)
	if err != nil {
		return err
	}
	defer in.Close()
	defer out.Close()

	sum, err := ncfile.Corrupt(out, in, ncfile.CorruptOptions{DropRate: *drop, FlipRate: *flip, Seed: *seed})
	if err != nil {
		return err
	}
	fmt.Printf("damaged container: %d records, %d dropped, %d flipped\n",
		sum.Records, sum.Dropped, sum.Flipped)
	return out.Sync()
}
