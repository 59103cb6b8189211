// Command hooptrace records, inspects, and replays memory-operation
// traces — the Pin-trace workflow of the paper's platform, native to this
// simulator.
//
//	hooptrace record -workload tpcc -txs 5000 -o tpcc.trc
//	hooptrace dump   -i tpcc.trc [-n 50]
//	hooptrace replay -i tpcc.trc -scheme Opt-Undo
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hoop/internal/clihelp"
	"hoop/internal/engine"
	"hoop/internal/sim"
	"hoop/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "hooptrace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: hooptrace {record|dump|replay} [flags]")
	}
	switch args[0] {
	case "record":
		return record(args[1:], out)
	case "dump":
		return dump(args[1:], out)
	case "replay":
		return replay(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (usage: hooptrace {record|dump|replay} [flags])", args[0])
	}
}

func record(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	common := clihelp.Common{Seed: 1}
	common.Register(fs, clihelp.FlagSeed)
	wlName := fs.String("workload", "hashmap-64", "Table III workload to trace")
	txs := fs.Int("txs", 5000, "transactions to record (setup transactions are recorded too)")
	outPath := fs.String("o", "workload.trc", "output trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	wl, ok := clihelp.FindWorkload(*wlName)
	if !ok {
		return fmt.Errorf("unknown workload %q", *wlName)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	rec := trace.NewRecorder(f)

	sys, err := engine.New(engine.DefaultConfig(engine.SchemeNative))
	if err != nil {
		return err
	}
	sys.Subscribe(rec, trace.RecordMask)
	runners := wl.Runners(sys, common.Seed)
	sys.Run(runners, *txs)
	if err := rec.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d ops (%d transactions incl. setup) to %s\n",
		rec.Count(), sys.Snapshot().Txs, *outPath)
	return f.Close()
}

func dump(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	in := fs.String("i", "workload.trc", "input trace file")
	n := fs.Int("n", 40, "ops to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewReader(f)
	var total, loads, stores, txs int64
	for i := 0; ; i++ {
		op, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		total++
		switch op.Kind {
		case trace.OpLoad:
			loads++
		case trace.OpStore:
			stores++
		case trace.OpTxEnd:
			txs++
		}
		if *n == 0 || i < *n {
			fmt.Fprintln(out, op)
		}
	}
	if *n != 0 && total > int64(*n) {
		fmt.Fprintf(out, "... (%d more ops)\n", total-int64(*n))
	}
	fmt.Fprintf(out, "summary: %d ops, %d txs, %d loads, %d stores\n", total, txs, loads, stores)
	return nil
}

func replay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	common := clihelp.Common{Scheme: engine.SchemeHOOP}
	common.Register(fs, clihelp.FlagScheme)
	in := fs.String("i", "workload.trc", "input trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scheme := &common.Scheme

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	sys, err := engine.New(engine.DefaultConfig(*scheme))
	if err != nil {
		return err
	}
	txs, err := trace.Replay(sys, f)
	if err != nil {
		return err
	}
	span := sys.MaxClock()
	fmt.Fprintf(out, "replayed %d transactions on %s\n", txs, *scheme)
	fmt.Fprintf(out, "  simulated span    %v\n", span)
	if txs > 0 && span > 0 {
		fmt.Fprintf(out, "  throughput        %.3f M tx/s\n", float64(txs)/span.Seconds()/1e6)
		fmt.Fprintf(out, "  avg tx latency    %v\n", sys.Snapshot().TxLatencySum/sim.Duration(txs))
	}
	fmt.Fprintf(out, "  NVM bytes written %d\n", sys.Stats().Get(sim.StatNVMBytesWritten))
	return nil
}
