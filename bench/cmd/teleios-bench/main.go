// Command teleios-bench measures a live teleios-server from the outside.
//
//	teleios-bench -seed N                      every workload once, metrics by name
//	teleios-bench -workload W -seed N -seconds S -trace 0|1
//	                                           one run, one JSON result line (the driver's form)
//	teleios-bench -trace 1                     the per-layer traced pass of every workload
//	teleios-bench -sets 2 [-runs N]            A/A: two interleaved sets of the same binary
//	teleios-bench -compare a.json b.json       the same rule on two saved result files
//	teleios-bench -smoke                       tiny dataset, 1 s windows
//
// See ../../README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/bench"
)

func main() {
	var o bench.Options
	flag.StringVar(&o.Root, "root", "..", "repository root (the directory holding cmd/teleios-server and BENCHMARK.json)")
	flag.StringVar(&o.Workload, "workload", "", "run only this workload and print one JSON result line")
	flag.Int64Var(&o.Seed, "seed", 1, "seed of the dataset and of every request stream")
	flag.Float64Var(&o.Seconds, "seconds", 0, "measured window per workload (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.Trace, "trace", 0, "1: the traced, per-layer pass instead of the end-to-end run")
	flag.IntVar(&o.Sets, "sets", 1, "2: A/A mode, two interleaved sets of runs compared against the bounds")
	flag.IntVar(&o.Runs, "runs", 1, "runs per set in A/A mode")
	flag.BoolVar(&o.Compare, "compare", false, "compare two saved result files given as arguments")
	flag.BoolVar(&o.Smoke, "smoke", false, "tiny dataset and 1 s windows: a functional check, not a measurement")
	flag.Parse()
	o.Args = flag.Args()

	env, err := bench.NewEnv(o.Root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "teleios-bench:", err)
		os.Exit(2)
	}
	// SIGINT/SIGTERM must not leave a teleios-server or a data directory
	// behind: Close kills the children and removes the scratch directory.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		env.Close()
		os.Exit(130)
	}()
	err = bench.Main(env, o, os.Stdout)
	env.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "teleios-bench:", err)
		os.Exit(1)
	}
}
