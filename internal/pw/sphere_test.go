package pw

import (
	"math"
	"reflect"
	"sort"
	"testing"
)

// sphereByMap is the map-based enumeration newSphere replaced: K indices
// collected per (i,j) column in a map, columns sorted by the canonical key.
func sphereByMap(ecut, alat float64, gamma bool) *Sphere {
	s := newSphere(ecut, alat, gamma)
	s.G, s.Stick = nil, nil
	lim := int(math.Sqrt(s.GCut)) + 1
	type ij struct{ i, j int }
	sticks := map[ij][]int{}
	for i := -lim; i <= lim; i++ {
		for j := -lim; j <= lim; j++ {
			for k := -lim; k <= lim; k++ {
				g2 := float64(i*i + j*j + k*k)
				if g2 <= s.GCut && (!gamma || gammaHalf(i, j, k)) {
					sticks[ij{i, j}] = append(sticks[ij{i, j}], k)
				}
			}
		}
	}
	keys := make([]ij, 0, len(sticks))
	for k := range sticks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		na, nb := keys[a].i*keys[a].i+keys[a].j*keys[a].j, keys[b].i*keys[b].i+keys[b].j*keys[b].j
		if na != nb {
			return na < nb
		}
		if keys[a].i != keys[b].i {
			return keys[a].i < keys[b].i
		}
		return keys[a].j < keys[b].j
	})
	off := 0
	for _, key := range keys {
		zs := sticks[key]
		sort.Ints(zs)
		s.Stick = append(s.Stick, Stick{I: key.i, J: key.j, Zs: zs, Off: off})
		for _, k := range zs {
			s.G = append(s.G, GVector{I: key.i, J: key.j, K: k,
				G2: float64(key.i*key.i + key.j*key.j + k*k)})
		}
		off += len(zs)
	}
	return s
}

// newSphere builds exactly the sphere of the map enumeration — same
// G-vectors, same stick order, same offsets — for several cutoffs, the
// paper's Ecut 80 Ry / Alat 20 bohr among them, with gamma on and off.
func TestSphereMatchesMapEnumeration(t *testing.T) {
	for _, c := range []struct{ ecut, alat float64 }{
		{0.5, 10}, {10, 10}, {20, 12}, {30, 15}, {80, 20},
	} {
		for _, gamma := range []bool{false, true} {
			got, want := newSphere(c.ecut, c.alat, gamma), sphereByMap(c.ecut, c.alat, gamma)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ecut %g alat %g gamma %v: sphere differs from the map enumeration (%d vs %d G, %d vs %d sticks)",
					c.ecut, c.alat, gamma, got.NG(), want.NG(), got.NSticks(), want.NSticks())
			}
		}
	}
}
