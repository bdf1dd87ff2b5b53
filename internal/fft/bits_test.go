package fft

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/par"
)

// updateBits rewrites testdata/transform_bits.txt from the current kernels:
//
//	go test ./internal/fft -run TestTransformBitsPinned -update
var updateBits = flag.Bool("update", false, "rewrite testdata/transform_bits.txt from the current kernels")

const bitsPath = "testdata/transform_bits.txt"

// sameBits reports whether a and b have identical bit patterns in both
// parts. Unlike ==, it tells +0 from -0, the first symptom of a
// misplaced sign or swap.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// firstBitDiff returns the first index where got and want differ in bits,
// or -1.
func firstBitDiff(got, want []complex128) int {
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// randVecZeros is randVec with every third cell exactly zero, so the
// transforms produce and combine signed zeros that a bit comparison sees.
func randVecZeros(rng *rand.Rand, n int) []complex128 {
	x := randVec(rng, n)
	for i := 0; i < n; i += 3 {
		x[i] = 0
	}
	return x
}

// bitsInput returns rows rows of length n for the pinned runs. Row r%4
// is: 0, random with every third cell zero; 1, all zero; 2, an impulse at
// cell 1; 3, real-valued with every third cell zero. The last three give
// exactly zero outputs and parts, whose signs a misplaced swap or sign
// flips first.
func bitsInput(seed int64, n, rows int) []complex128 {
	x := randVecZeros(rand.New(rand.NewSource(seed)), n*rows)
	for r := 0; r < rows; r++ {
		row := x[r*n : (r+1)*n]
		switch r % 4 {
		case 1:
			clear(row)
		case 2:
			clear(row)
			row[1%n] = 1
		case 3:
			for i, v := range row {
				row[i] = complex(real(v), 0)
			}
		}
	}
	return x
}

// bitsRows is the row count of the pinned batch runs: one full fan-out
// grain plus a partial one.
const bitsRows = 37

// bitsShapes2D and bitsShapes3D are the pinned plane and box shapes.
var (
	bitsShapes2D = [][2]int{{120, 120}, {60, 60}, {64, 48}, {75, 30}, {1009, 3}}
	bitsShapes3D = [][3]int{{32, 32, 32}, {16, 16, 16}, {24, 30, 20}}
)

// TestTransformBitsPinned pins the exact output bits of every transform
// entry point, per host-parallelism setting, length or shape and
// direction, to testdata/transform_bits.txt. Each line holds the first 8
// bytes of a SHA-256 over the outputs: for a length n, Transform on four
// rows, then a bitsRows-row TransformBatch and TransformMany under the
// mixed, radix-8 and auto policies; for a plane or box shape, one-item and
// three-item TransformBatch calls. The inputs (bitsInput) hold exact
// zeros, all-zero rows, impulses and real-valued rows, so the outputs hold
// exact zeros whose signs are pinned too. A kernel rewrite that claims to
// move no bit must leave the file unchanged.
func TestTransformBitsPinned(t *testing.T) {
	defer par.SetEnabled(true)
	var lines []string
	emit := func(key string, run func(h hash.Hash, sign Sign)) {
		for _, on := range []bool{false, true} {
			par.SetEnabled(on)
			for _, sign := range []Sign{Forward, Backward} {
				h := sha256.New()
				run(h, sign)
				lines = append(lines, fmt.Sprintf("%s %s %s %s",
					map[bool]string{false: "off", true: "on"}[on], key,
					map[Sign]string{Forward: "fwd", Backward: "bwd"}[sign],
					hex.EncodeToString(h.Sum(nil)[:8])))
			}
		}
	}
	for n := 1; n <= 520; n++ {
		x := bitsInput(int64(n), n, bitsRows)
		plans := []*Plan{newPlanRadix(n, radixMixed), newPlanRadix(n, radix8), newPlanRadix(n, radixAuto)}
		emit(fmt.Sprintf("n=%d", n), func(h hash.Hash, sign Sign) {
			for _, p := range plans {
				one := append([]complex128(nil), x[:4*n]...)
				for r := 0; r < 4; r++ {
					p.Transform(one[r*n:(r+1)*n], sign)
				}
				hashCells(h, one)
				batch := append([]complex128(nil), x...)
				p.TransformBatch(batch, bitsRows, sign)
				hashCells(h, batch)
				many := append([]complex128(nil), x...)
				p.TransformMany(many, bitsRows, sign)
				hashCells(h, many)
			}
		})
	}
	items := func(p batchPlan, key string) {
		sz := p.Size()
		in := bitsInput(int64(sz), sz, 4)
		x := slices.Concat(in[3*sz:], in[sz:2*sz], in[:sz]) // real-valued, zero, random
		emit(key, func(h hash.Hash, sign Sign) {
			for _, count := range []int{1, 3} {
				y := append([]complex128(nil), x[:count*sz]...)
				p.TransformBatch(y, count, sign)
				hashCells(h, y)
			}
		})
	}
	for _, d := range bitsShapes2D {
		items(NewPlan2D(d[0], d[1]), fmt.Sprintf("2d=%dx%d", d[0], d[1]))
	}
	for _, d := range bitsShapes3D {
		items(NewPlan3D(d[0], d[1], d[2]), fmt.Sprintf("3d=%dx%dx%d", d[0], d[1], d[2]))
	}

	if *updateBits {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bitsPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), bitsPath)
		return
	}
	f, err := os.Open(bitsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("%s holds %d digests, the kernels produce %d", bitsPath, len(want), len(lines))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] {
			if bad < 10 {
				t.Errorf("digest moved: got %q, pinned %q", lines[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d digests moved", bad, len(lines))
	}
}

// hashCells feeds the bit patterns of x into h.
func hashCells(h hash.Hash, x []complex128) {
	var b [16]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
}
