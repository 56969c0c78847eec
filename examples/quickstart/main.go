// Quickstart: build an 8-wide dRAID-5 array, write and read real data,
// degrade the array, and watch the host NIC traffic stay at ~1× — the
// paper's headline property.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"draid"
)

func main() {
	arr, err := draid.New(draid.Config{
		Drives:        8,
		ChunkSize:     512 << 10,
		DriveCapacity: 1 << 30, // 1 GB drives keep the demo snappy
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dRAID-5 array: 8 drives, %.1f GB virtual device\n", float64(arr.Size())/1e9)

	// Write one chunk's worth of data — a partial-stripe write, the case
	// dRAID disaggregates (read-modify-write with peer-to-peer parity).
	payload := make([]byte, 512<<10)
	rand.New(rand.NewSource(42)).Read(payload)
	arr.ResetTraffic()
	if err := arr.WriteSync(0, payload); err != nil {
		log.Fatal(err)
	}
	out, in := arr.HostTraffic()
	fmt.Printf("partial-stripe write: host sent %.2fx user bytes (in: %.2fx) — Table 1's 1x\n",
		float64(out)/float64(len(payload)), float64(in)/float64(len(payload)))

	got, err := arr.ReadSync(0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		log.Fatalf("read-back mismatch (err=%v)", err)
	}
	fmt.Println("read-back verified byte-for-byte")

	// Fail the drive holding the chunk we just wrote. Reads of its chunks
	// are rebuilt by the storage servers themselves; only the requested
	// bytes cross the host NIC.
	arr.FailDrive(0)
	arr.ResetTraffic()
	got, err = arr.ReadSync(0, int64(len(payload)))
	if err != nil || !bytes.Equal(got, payload) {
		log.Fatalf("degraded read mismatch (err=%v)", err)
	}
	_, in = arr.HostTraffic()
	fmt.Printf("degraded read: host received %.2fx requested bytes — reconstruction stayed peer-to-peer\n",
		float64(in)/float64(len(payload)))
	fmt.Printf("stats: %+v\n", arr.Status().Counters)

	// A quick bandwidth check (virtual time, so it completes instantly).
	res := arr.Benchmark(draid.BenchmarkSpec{
		IOSizeBytes: 128 << 10, QueueDepth: 12,
		Ramp: 20 * time.Millisecond, Measure: 50 * time.Millisecond,
	})
	fmt.Printf("degraded 128KB write benchmark: %.0f MB/s, avg %.0fus\n",
		res.BandwidthMBps, float64(res.AvgLatency.Microseconds()))
	fmt.Printf("virtual time elapsed: %v\n", arr.Now())
}
