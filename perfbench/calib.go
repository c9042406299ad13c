package main

import "time"

// The calibration loop is fixed reference work that the benchmark times
// before and after every host window: lookups in a map of
// 256 Ki entries and 128-byte copies within a 4 MiB buffer, the kind of
// work the simulator does. Its speed follows the speed the shared host
// gives the benchmark at that moment, so dividing it out removes most of
// the run-to-run spread of host figures. It is the benchmark's own code,
// so a change to the program cannot move it.
const (
	calibKeys  = 1 << 18
	calibSteps = 16384
	// calibNominalNs is the loop's time on the reference core. Normalized
	// host rates are requests per second on that core; the value only
	// scales them.
	calibNominalNs = 3e6
)

var (
	calibTable map[uint64]uint64
	calibBuf   []byte
	calibSink  uint64
)

func initCalibration() {
	if calibTable != nil {
		return
	}
	calibTable = make(map[uint64]uint64, calibKeys)
	for i := uint64(0); i < calibKeys; i++ {
		calibTable[mix(i)] = i
	}
	calibBuf = make([]byte, 4<<20)
}

// calibrate runs the loop once and returns its host ns.
func calibrate() int64 {
	t0 := time.Now()
	var acc uint64
	x := uint64(0x5eed)
	span := uint64(len(calibBuf) - 8192)
	for i := 0; i < calibSteps; i++ {
		x = mix(x)
		acc += calibTable[mix(x%calibKeys)]
		off := x % span
		copy(calibBuf[off:off+128], calibBuf[off+4096:])
	}
	calibSink += acc
	return int64(time.Since(t0))
}
