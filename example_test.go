package draid_test

import (
	"fmt"

	"draid"
)

// Example demonstrates the whole dRAID lifecycle: build an array, write
// through the disaggregated partial-write path, survive a drive failure,
// and rebuild.
func Example() {
	arr, err := draid.New(draid.Config{
		Drives:        5,
		ChunkSize:     64 << 10,
		DriveCapacity: 64 << 20,
	})
	if err != nil {
		panic(err)
	}

	payload := []byte("the bytes survive the drive")
	if err := arr.WriteSync(0, payload); err != nil {
		panic(err)
	}

	arr.FailDrive(0)
	got, err := arr.ReadSync(0, int64(len(payload)))
	if err != nil {
		panic(err)
	}
	fmt.Printf("degraded read: %q\n", got)

	if err := arr.RebuildDrive(0, 1); err != nil {
		panic(err)
	}
	fmt.Printf("failed drives after rebuild: %d\n", len(arr.Status().Failed))
	// Output:
	// degraded read: "the bytes survive the drive"
	// failed drives after rebuild: 0
}
