// Command draid-rebuild demonstrates the automatic failure-recovery pipeline
// end to end: a drive fail-stops mid-workload with no notification to the
// controller, heartbeat probing detects it, the supervisor marks the member
// failed and rebuilds it onto a hot spare under a token-bucket rate limit
// while foreground I/O keeps serving, and a final full-device read verifies
// every byte survived.
//
//	draid-rebuild                      # RAID-5, 5+1 drives, one hot spare
//	draid-rebuild -level 6 -drives 7   # RAID-6 under the same crash
//	draid-rebuild -rate 100            # throttle the rebuild to 100 MB/s
//	draid-rebuild -chrome reb.json     # Chrome trace of the whole recovery
//	draid-rebuild -v                   # the array's full status as JSON
//
// The entire scenario runs in virtual time: same seed, same trace, every run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"draid"
)

func main() {
	level := flag.Int("level", 5, "RAID level: 5 or 6")
	drives := flag.Int("drives", 5, "stripe width (excluding spares)")
	spares := flag.Int("spares", 1, "hot spares provisioned on the cluster")
	rate := flag.Float64("rate", 400, "rebuild throttle in MB/s (0 = unthrottled)")
	seed := flag.Int64("seed", 1, "workload and simulation seed")
	victim := flag.Int("victim", 2, "member index to crash")
	chrome := flag.String("chrome", "", "write a Chrome trace_event JSON of the recovery")
	verbose := flag.Bool("v", false, "print the array's status, recovery log included, as indented JSON")
	flag.Parse()

	lvl := draid.Raid5
	if *level == 6 {
		lvl = draid.Raid6
	}
	arr, err := draid.New(draid.Config{
		Level: lvl, Drives: *drives, ChunkSize: 64 << 10, DriveCapacity: 8 << 20,
		Spares:          *spares,
		Health:          draid.HealthConfig{Detect: true, HeartbeatEvery: time.Millisecond},
		RebuildRateMBps: *rate,
		OpDeadline:      10 * time.Millisecond,
		Seed:            *seed,
		Observe:         draid.Observe{Trace: *chrome != ""},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Seed the device with a random image we can verify after recovery.
	rng := rand.New(rand.NewSource(*seed))
	ref := make([]byte, arr.Size())
	rng.Read(ref)
	const step = 1 << 20
	for off := 0; off < len(ref); off += step {
		end := off + step
		if end > len(ref) {
			end = len(ref)
		}
		if err := arr.WriteSync(int64(off), ref[off:end]); err != nil {
			log.Fatalf("seed write at %d: %v", off, err)
		}
	}
	fmt.Printf("seeded %d MB across %d drives (RAID-%d, %d spare)\n",
		len(ref)>>20, *drives, *level, *spares)

	// Fail-stop: the drive just stops answering. Nobody calls SetFailed.
	fmt.Printf("\nT=%v  member %d fail-stops (controller not told)\n", arr.Now(), *victim)
	arr.CrashDrive(*victim)

	// Keep foreground traffic flowing while detection and rebuild proceed.
	inflight, failed := 0, 0
	for i := 0; i < 32; i++ {
		off := int64(rng.Intn(len(ref)/step)) * step
		arr.Read(off, 64<<10, func(_ []byte, err error) {
			inflight--
			if err != nil {
				failed++
			}
		})
		inflight++
		arr.RunFor(500 * time.Microsecond)
	}
	arr.Run() // drain: detection fires, rebuild runs to completion

	fmt.Printf("T=%v  quiesced: %d foreground reads served during recovery (%d failed)\n",
		arr.Now(), 32-inflight-failed, failed)

	st := arr.Status()
	fmt.Printf("\nrebuild: active=%v rebuilt %d/%d stripes onto node %v\n",
		st.Rebuild.Active, st.Rebuild.Done, st.Rebuild.Total, st.Rebuild.Dest)
	fmt.Printf("health:  %v  (failed drives: %v, spares left: %d)\n", st.Health, st.Failed, st.Spares)
	fmt.Printf("stats:   probes=%d rebuiltStripes=%d degradedReads=%d\n",
		st.Counters.Probes, st.Counters.RebuiltStripes, st.Counters.DegradedReads)
	if n := len(st.Events); n > 0 {
		fmt.Printf("events:  %d logged, the last: %v  (-v for the full status)\n", n, st.Events[n-1])
	}
	if *verbose {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			log.Fatal(err)
		}
	}

	got, err := arr.ReadSync(0, arr.Size())
	if err != nil {
		log.Fatalf("full read after recovery: %v", err)
	}
	if !bytes.Equal(got, ref) {
		log.Fatal("FAIL: device image diverged after recovery")
	}
	fmt.Printf("\nverify:  full %d MB read back byte-exact after recovery\n", len(ref)>>20)

	if *chrome != "" {
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
		fmt.Printf("trace:   wrote %s (load in ui.perfetto.dev)\n", *chrome)
	}
}
