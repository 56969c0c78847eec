// Degraded-recovery walkthrough: lose a drive mid-workload, serve
// reconstructed reads, rebuild onto a replacement through the disaggregated
// reconstruction path, then survive a second failure — proving redundancy
// was actually restored.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
)

import "draid"

const chunk = 64 << 10

func main() {
	arr, err := draid.New(draid.Config{
		Drives:        5,
		ChunkSize:     chunk,
		DriveCapacity: 64 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Fill the first 16 stripes with known data.
	stripeData := int64(4 * chunk) // k=4 data chunks per stripe
	content := make([]byte, 16*stripeData)
	rand.New(rand.NewSource(7)).Read(content)
	if err := arr.WriteSync(0, content); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seeded %d KB across 16 stripes\n", len(content)>>10)

	// Drive 2 dies. Everything still reads, reconstructed on the fly.
	arr.FailDrive(2)
	got, err := arr.ReadSync(0, int64(len(content)))
	if err != nil || !bytes.Equal(got, content) {
		log.Fatalf("degraded read failed (err=%v)", err)
	}
	fmt.Printf("degraded reads OK; reconstructions so far: %d\n", arr.Status().Counters.Reconstructions)

	// Writes keep working too — parity absorbs updates to the lost chunk.
	update := make([]byte, chunk)
	rand.New(rand.NewSource(8)).Read(update)
	if err := arr.WriteSync(0, update); err != nil {
		log.Fatal(err)
	}
	copy(content[:chunk], update)
	fmt.Println("degraded write absorbed by parity")

	// Replace the drive and rebuild its 16 used stripes.
	if err := arr.RebuildDrive(2, 16); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rebuild complete; failed drives now: %v\n", arr.Status().Failed)

	// Prove redundancy is back: lose a DIFFERENT drive and read everything.
	arr.FailDrive(0)
	got, err = arr.ReadSync(0, int64(len(content)))
	if err != nil || !bytes.Equal(got, content) {
		log.Fatalf("read after second failure mismatch (err=%v)", err)
	}
	fmt.Println("second failure survived — redundancy fully restored")
	fmt.Printf("virtual time: %v, host stats: %+v\n", arr.Now(), arr.Status().Counters)
}
