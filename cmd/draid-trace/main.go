// Command draid-trace records the full virtual-time trace of single dRAID
// operations — the clearest way to see the disaggregated data path: the
// PartialWrite/Parity broadcast, peer-to-peer partial-parity forwarding, the
// non-blocking reduce, and a degraded read's decoupled return paths.
//
// It runs a short scripted scenario (full-stripe seed, partial-stripe
// read-modify-write, member failure, degraded read) with tracing enabled,
// then exports the trace:
//
//	draid-trace                       # flame summary on stdout + draid-trace.json
//	draid-trace -chrome deg.json      # choose the Chrome trace path
//	draid-trace -chrome -             # Chrome JSON on stdout, no summary
//	draid-trace -level 6 -drives 7    # same scenario on RAID-6
//
// Load the JSON in Perfetto (ui.perfetto.dev) or chrome://tracing: each
// storage server is a process row, and during the degraded read the Peer
// spans between server NICs carry the parity traffic that never touches the
// host NIC.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"draid"
)

func main() {
	level := flag.Int("level", 5, "RAID level: 5 or 6")
	drives := flag.Int("drives", 5, "stripe width")
	chrome := flag.String("chrome", "draid-trace.json", "Chrome trace_event output path (- for stdout)")
	flame := flag.Bool("flame", true, "print plain-text flame summary on stdout")
	policy := flag.String("reducer", "random", "reducer policy: random, fixed, or bwaware")
	flag.Parse()

	lvl := draid.Raid5
	if *level == 6 {
		lvl = draid.Raid6
	}
	red, err := draid.ParseReducerPolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	arr, err := draid.New(draid.Config{
		Level: lvl, Drives: *drives, ChunkSize: 64 << 10, DriveCapacity: 64 << 20,
		ReducerPolicy: red,
		Observe:       draid.Observe{Trace: true},
	})
	if err != nil {
		log.Fatal(err)
	}

	quiet := *chrome == "-"
	say := func(format string, args ...any) {
		if !quiet {
			fmt.Printf(format+"\n", args...)
		}
	}

	stripeData := int(arr.Controller().Geometry().StripeDataSize())
	say("=== seeding stripe 0 (full-stripe write; parity on host) ===")
	if err := arr.WriteSync(0, make([]byte, stripeData)); err != nil {
		log.Fatal(err)
	}

	say("=== partial-stripe write: 64 KB into chunk 0 (read-modify-write) ===")
	if err := arr.WriteSync(0, make([]byte, 64<<10)); err != nil {
		log.Fatal(err)
	}

	m := arr.Controller().Geometry().DataDrive(0, 1)
	say("=== failing member %d; degraded read of chunks 0-1 ===", m)
	arr.FailDrive(m)
	if _, err := arr.ReadSync(0, 2*64<<10); err != nil {
		log.Fatal(err)
	}

	if *chrome == "-" {
		if err := arr.Trace().WriteChrome(os.Stdout); err != nil {
			log.Fatal(err)
		}
	} else if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			log.Fatal(err)
		}
		if err := arr.Trace().WriteChrome(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		say("=== wrote %s (load in ui.perfetto.dev or chrome://tracing) ===", *chrome)
	}
	if *flame && !quiet {
		fmt.Println()
		if err := arr.Trace().WriteFlame(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	out, in := arr.HostTraffic()
	say("\nhost stats: %+v", arr.Status().Counters)
	say("host NIC totals: out=%d bytes in=%d bytes (peer parity traffic bypasses the host)", out, in)
}
