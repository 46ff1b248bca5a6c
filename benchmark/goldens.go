package main

import (
	"hash/fnv"
	"strconv"
)

// goldenSeed is the seed whose reference fingerprints are pinned below.
const goldenSeed = 42

// goldens pins, per workload, the digest of the reference fingerprints that
// set-up computes at goldenSeed: the threads=1 references of the in-process
// cells, the warm-up fingerprints of the serving workloads. They are pure
// functions of the seed and the input sizes — not of the host, its thread
// count or its client count — so a mismatch means the engine's output
// changed, which no performance change may do.
var goldens = []struct {
	workload string
	digest   uint64
}{
	{"engine-finegrain", 0xc3f189f8e3e899d2},
	{"engine-mesh", 0x1e136b4573dbc50b},
	{"engine-nondet", 0xcc4c41eac2c20e84},
	{"serve-miss", 0xb695f8812fe7c892},
	{"serve-hit", 0x8f5982b9b2e9e7be},
}

// digest folds fingerprints, in order, into one FNV-1a value.
func digest(fps []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, fp := range fps {
		for i := range buf {
			buf[i] = byte(fp >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// digestStrings is digest over %016x fingerprints as receipts carry them.
func digestStrings(fps []string) uint64 {
	vals := make([]uint64, len(fps))
	for i, s := range fps {
		vals[i], _ = strconv.ParseUint(s, 16, 64) // malformed reads 0 and fails the comparison
	}
	return digest(vals)
}

// checkGolden compares a run's reference digest with the pinned one. It
// applies at goldenSeed and full size only; every other seed is still
// checked op by op against its own threads=1 reference.
func checkGolden(env *runEnv, res *runResult, workload string, got uint64) {
	if env.seed != goldenSeed || env.smoke {
		return
	}
	for _, g := range goldens {
		if g.workload == workload && g.digest != got {
			res.Attempted++
			res.fail("%s: reference digest %016x at seed %d, pinned %016x", workload, got, goldenSeed, g.digest)
		}
	}
}
