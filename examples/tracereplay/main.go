// Tracereplay demonstrates deterministic trace capture and replay:
// generate a workload trace once, serialize it in the trace file
// format (the one cmd/tracegen writes), then replay the *same* dynamic
// instruction stream under different DVFS schemes — the methodology
// cycle-accurate simulation studies use to guarantee every scheme sees
// identical work.
package main

import (
	"bytes"
	"fmt"
	"log"

	"mcddvfs"
)

func main() {
	const insts = 150000
	prof, err := mcddvfs.BenchmarkProfile("gsm_decode")
	if err != nil {
		log.Fatal(err)
	}

	// Capture the trace once.
	gen, err := mcddvfs.NewTraceGenerator(prof, 42, insts)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mcddvfs.WriteTrace(&buf, gen, insts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %s: %d instructions, %d bytes serialized\n\n",
		prof.Name, insts, buf.Len())
	blob := buf.Bytes()

	// Replay the identical stream under each scheme.
	schemes := []mcddvfs.Scheme{
		mcddvfs.SchemeNone, mcddvfs.SchemeAdaptive,
		mcddvfs.SchemePID, mcddvfs.SchemeAttackDecay,
	}
	var base *mcddvfs.Result
	fmt.Printf("%-14s %14s %12s %8s\n", "scheme", "time", "energy (J)", "IPC")
	for _, s := range schemes {
		r, err := mcddvfs.ReadTrace(bytes.NewReader(blob))
		if err != nil {
			log.Fatal(err)
		}
		res, err := mcddvfs.RunTrace(r, mcddvfs.RunSpec{Scheme: s, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %14v %12.5g %8.3f\n", s, res.Metrics.ExecTime, res.Metrics.EnergyJ, res.IPC)
		if s == mcddvfs.SchemeNone {
			base = res
		} else if base != nil {
			c := mcddvfs.CompareRuns(base, res)
			fmt.Printf("%-14s   save %.2f%%  perf %.2f%%  EDP %.2f%%\n", "",
				100*c.EnergySaving, 100*c.PerfDegradation, 100*c.EDPImprovement)
		}
	}
}
