package fft

// The SoA (structure-of-arrays) code path: planar re/im chunk kernels for
// the batched row and column drivers. The AoS kernels operate on
// []complex128, whose 16-byte elements make the compiler shuffle
// real/imaginary pairs through registers on every butterfly; the planar
// kernels run the same arithmetic over two separate []float64 slices, which
// compiles to straight-line scalar float code with simpler addressing and
// no pair packing.
//
// Bit-identity is a hard contract: every planar butterfly mirrors its AoS
// counterpart operation for operation (same products, same rounding points,
// same evaluation order — the explicit float64(...) conversions pin the
// intermediate roundings the complex arithmetic performs), so the planar
// path produces bit-identical spectra and the equivalence tests compare
// with ==, not a tolerance. Lengths the iterative kernel cannot factorize
// (Bluestein fallback) stay on the AoS path.
//
// Layout: the drivers pack AoS rows into pooled planar scratch at the chunk
// boundary, run every combine stage across the whole chunk — stage-major,
// so one stage's twiddle stream stays hot across all rows — and unpack on
// the way out. Steady state allocates nothing: scratch comes from a
// per-plan pool (TestTransformZeroAllocs pins every entry point).

// soaChunkRows is the number of batch rows one pooled chunk buffer holds:
// the stage-batched chunk kernel packs up to this many rows at once, so
// the planar working set stays cache-resident (32 rows × a stick length of
// a few hundred cells × 16 B ≲ L2) while still amortizing pack, scratch
// and twiddle traffic over the whole chunk.
const soaChunkRows = 32

// soaPackTile is the cell-tile width of the chunk pack/unpack transpose.
// Packing a chunk into cell-major order is an nb×n transpose (with the
// digit-reversal permutation riding along on the way in); tiling the cell
// axis keeps each tile's strided side inside a few KB of L1 instead of
// streaming write-misses across the whole chunk.
const soaPackTile = 16

// soaMaxPackTile bounds the fused pack tile: leading stages are fused
// into the pack only while their whole block stays within this many cell
// columns, keeping the tile working set (tile × rows × two planes) inside
// L1 while the fused stages re-walk it.
const soaMaxPackTile = 32

// soaLd is the leading dimension (in cells) of a cell-major chunk of nb
// rows: the next odd number. An odd stride means the per-cell streams of a
// combine stage — m·ld cells apart — are never a multiple of 4 KB apart,
// which would alias on page offset and stall every butterfly load against
// the previous stream's stores; it also walks all L1 sets instead of
// hammering one. The pad cells (one per cell column) are never read.
func soaLd(nb int) int { return nb | 1 }

// soaBuf is a pooled pair of planar scratch planes.
type soaBuf struct {
	re, im []float64
}

func newSoaBuf(n int) *soaBuf {
	return &soaBuf{re: make([]float64, n), im: make([]float64, n)}
}

// transformRowsSoA is the AoS-boundary chunk kernel of the batch drivers:
// it packs up to soaChunkRows contiguous AoS rows into pooled planar
// scratch in cell-major order — scratch cell (i, b) of chunk row b lives
// at [i·nb + b], with the digit-reversal permutation fused into the pack —
// then runs every combine stage across the whole chunk. Cell-major is
// what lets the planar layout pay off without SIMD intrinsics: the inner
// butterfly loops run over the nb rows of the chunk with every operand
// stream contiguous and each twiddle loaded once per cell instead of once
// per row, so twiddle traffic and loop overhead drop by the chunk width.
// The per-row arithmetic is untouched — results stay bit-identical to
// per-row Transform. Plans without iterative stages (Bluestein) fall back
// to the per-row AoS path.
func (p *Plan) transformRowsSoA(data []complex128, rows int, sign Sign) {
	if p.stages == nil || p.n == 1 {
		p.TransformMany(data, rows, sign)
		return
	}
	n := p.n
	for r0 := 0; r0 < rows; r0 += soaChunkRows {
		nb := rows - r0
		if nb > soaChunkRows {
			nb = soaChunkRows
		}
		ld := soaLd(nb)
		chunk := data[r0*n : (r0+nb)*n]
		sp := p.soaRows.Get().(*soaBuf)
		wr, wi := sp.re, sp.im
		// Pack fused with the leading combine stages. Stage block sizes
		// nest (stage t works on blocks of r·m = m_{t+1} cell columns), so
		// every leading stage whose whole block fits inside one pack tile
		// can run on the tile right after packing it, while the cells are
		// still L1-hot — each fused stage saves one full pass over the
		// chunk. The tile is the block size of the deepest fused stage, so
		// it always divides n and tiles cover whole blocks.
		f, tile := p.fusedPackStages()
		for i0 := 0; i0 < n; i0 += tile {
			i1 := i0 + tile
			if i1 > n {
				i1 = n
			}
			perm := p.perm[i0:i1]
			for b := 0; b < nb; b++ {
				row := chunk[b*n : (b+1)*n : (b+1)*n]
				for j, s := range perm {
					v := row[s]
					wr[(i0+j)*ld+b] = real(v)
					wi[(i0+j)*ld+b] = imag(v)
				}
			}
			for t := 0; t < f; t++ {
				stageRows(wr[i0*ld:i1*ld], wi[i0*ld:i1*ld], &p.stages[t], nb, ld, sign)
			}
		}
		// The final stage spans the whole row (r·m = n), so its butterfly
		// results are the finished spectrum: fuse it with the planar→AoS
		// unpack, writing the output rows directly and saving one more
		// pass over the chunk (radix 2, 4 and 8; a final odd-radix stage
		// runs in place, then a plain copy-out).
		last := len(p.stages) - 1
		p.combineRowsSoARange(wr, wi, nb, ld, sign, f, last)
		stageRowsUnpack(wr, wi, &p.stages[last], nb, ld, sign, chunk, n)
		p.soaRows.Put(sp)
	}
}

// fusedPackStages returns how many leading combine stages the pack loop
// fuses and the pack tile width. Stage block sizes nest (stage t works on
// blocks of r·m cell columns), so every leading stage whose whole block
// fits inside one pack tile can run on the tile right after packing it,
// while the cells are still L1-hot; the tile is the block size of the
// deepest fused stage, so tiles always cover whole blocks. The final
// stage is never fused here — it belongs to the fused unpack.
func (p *Plan) fusedPackStages() (f, tile int) {
	tile = 1
	for f < len(p.stages)-1 && p.stages[f].r*p.stages[f].m <= soaMaxPackTile {
		tile = p.stages[f].r * p.stages[f].m
		f++
	}
	if f == 0 {
		tile = soaPackTile
	}
	return f, tile
}

// transformColsSoA transforms the nb columns iy0..iy0+nb-1 of a row-major
// ·×ny plane in place: column iy holds the elements plane[i·ny+iy]. This
// is the 2-D column pass of Plan2D on the planar path, and it is where the
// blocked transpose of the AoS column pass disappears: packing cell
// column i of the chunk reads the contiguous row segment
// plane[perm[i]·ny+iy0 : +nb] and splits it into the re/im planes, and the
// unpack writes contiguous segments back — both directions stream, no
// intermediate complex buffer, no scatter. Results are bit-identical to
// gathering each column and calling Transform on it.
//
// nb must be at most soaChunkRows and the plan must have iterative stages
// (p.planar implies it); Plan2D guards both.
func (p *Plan) transformColsSoA(plane []complex128, ny, iy0, nb int, sign Sign) {
	n := p.n
	ld := soaLd(nb)
	sp := p.soaRows.Get().(*soaBuf)
	wr, wi := sp.re, sp.im
	f, tile := p.fusedPackStages()
	for i0 := 0; i0 < n; i0 += tile {
		i1 := i0 + tile
		if i1 > n {
			i1 = n
		}
		perm := p.perm[i0:i1]
		for j, src := range perm {
			row := plane[src*ny+iy0 : src*ny+iy0+nb : src*ny+iy0+nb]
			dstR := wr[(i0+j)*ld:][:nb:nb]
			dstI := wi[(i0+j)*ld:][:nb:nb]
			for b, v := range row {
				dstR[b] = real(v)
				dstI[b] = imag(v)
			}
		}
		for t := 0; t < f; t++ {
			stageRows(wr[i0*ld:i1*ld], wi[i0*ld:i1*ld], &p.stages[t], nb, ld, sign)
		}
	}
	// Unlike the row kernel, the unpack here is not fused with the final
	// stage: the final combine stage writes cell-major while the plane
	// wants contiguous row segments, and the segment copies below stream
	// both sides — the extra pass costs less than scattering the stores.
	p.combineRowsSoARange(wr, wi, nb, ld, sign, f, len(p.stages))
	for i := 0; i < n; i++ {
		srcR := wr[i*ld:][:nb:nb]
		srcI := wi[i*ld:][:nb:nb]
		row := plane[i*ny+iy0 : i*ny+iy0+nb : i*ny+iy0+nb]
		for b := range row {
			row[b] = complex(srcR[b], srcI[b])
		}
	}
	p.soaRows.Put(sp)
}

// combineRowsSoARange runs the combine passes for stages [lo, hi) over nb
// cell-major packed rows; the fused pack and unpack kernels own the stages
// outside that range. Every stage walks its butterflies once, and each
// butterfly's inner loop sweeps the nb rows contiguously. Rows are
// independent and the per-row operation order matches combine, so the
// result equals per-row transforms exactly.
func (p *Plan) combineRowsSoARange(wr, wi []float64, nb, ld int, sign Sign, lo, hi int) {
	cells := p.n * ld
	for t := lo; t < hi; t++ {
		stageRows(wr[:cells], wi[:cells], &p.stages[t], nb, ld, sign)
	}
}

// stageRows is the planar stage dispatcher: it runs one combine stage over
// a cell-major region (a whole chunk, or one tile of the fused pack loop).
func stageRows(wr, wi []float64, st *stage, nb, ld int, sign Sign) {
	si := 0
	if sign == Backward {
		si = 1
	}
	switch st.r {
	case 2:
		stageRadix2Rows(wr, wi, st.m, nb, ld, st.twr[si], st.twi[si])
	case 3:
		stageRadix3Rows(wr, wi, st.m, nb, ld, st.twr[si], st.twi[si], sign)
	case 4:
		stageRadix4Rows(wr, wi, st.m, nb, ld, st.twr[si], st.twi[si], sign)
	case 5:
		stageRadix5Rows(wr, wi, st.m, nb, ld, st.twr[si], st.twi[si], sign)
	case 8:
		stageRadix8Rows(wr, wi, st.m, nb, ld, st.twr[si], st.twi[si], sign)
	default:
		stageGenericRows(wr, wi, st.r, st.m, nb, ld, st.twr[si], st.twi[si], st.wrr[si], st.wri[si])
	}
}

// stageRowsUnpack is the unpack tail: the final combine stage of a chunk
// (st.r·st.m = n) writing the finished spectrum into the AoS output rows of
// chunk. Radix 2, 4 and 8 fuse the stage with the unpack; the odd radices
// run their stage in place and unpackRows copies the chunk out.
func stageRowsUnpack(wr, wi []float64, st *stage, nb, ld int, sign Sign, chunk []complex128, n int) {
	si := 0
	if sign == Backward {
		si = 1
	}
	switch st.r {
	case 2:
		stageRadix2RowsUnpack(wr, wi, st.m, nb, ld, st.twr[si], st.twi[si], chunk, n)
	case 4:
		stageRadix4RowsUnpack(wr, wi, st.m, nb, ld, st.twr[si], st.twi[si], sign, chunk, n)
	case 8:
		stageRadix8RowsUnpack(wr, wi, st.m, nb, ld, st.twr[si], st.twi[si], sign, chunk, n)
	default:
		// No fused variant: the stage runs in place and a plain copy-out
		// follows. Copies are exact, so the spectrum is the same.
		stageRows(wr[:n*ld], wi[:n*ld], st, nb, ld, sign)
		unpackRows(wr, wi, nb, ld, chunk, n)
	}
}

// unpackRows copies a finished cell-major chunk back into its AoS rows,
// tiled over cells like the pack.
func unpackRows(wr, wi []float64, nb, ld int, chunk []complex128, n int) {
	for i0 := 0; i0 < n; i0 += soaPackTile {
		i1 := min(i0+soaPackTile, n)
		for b := 0; b < nb; b++ {
			row := chunk[b*n : (b+1)*n : (b+1)*n]
			for i := i0; i < i1; i++ {
				row[i] = complex(wr[i*ld+b], wi[i*ld+b])
			}
		}
	}
}

// stageRadix2Rows is the cell-major radix-2 butterfly: cell (c, b) lives
// at [c·nb + b], the twiddle of cell k1 is loaded once and applied to all
// nb rows over contiguous streams.
func stageRadix2Rows(wr, wi []float64, m, nb, ld int, twr, twi []float64) {
	cells := len(wr)
	for o := 0; o < cells; o += 2 * m * ld {
		for k := 0; k < m; k++ {
			tr, ti := twr[k], twi[k]
			lo := o + k*ld
			hi := o + (m+k)*ld
			lr := wr[lo : lo+nb : lo+nb]
			li := wi[lo : lo+nb : lo+nb]
			hr := wr[hi : hi+nb : hi+nb]
			hh := wi[hi : hi+nb : hi+nb]
			for b := 0; b < nb; b++ {
				ar, ai := lr[b], li[b]
				xr, xi := hr[b], hh[b]
				br := float64(xr*tr) - float64(xi*ti)
				bi := float64(xi*tr) + float64(xr*ti)
				lr[b], li[b] = ar+br, ai+bi
				hr[b], hh[b] = ar-br, ai-bi
			}
		}
	}
}

// stageRadix4Rows is the cell-major radix-4 butterfly.
func stageRadix4Rows(wr, wi []float64, m, nb, ld int, twr, twi []float64, sign Sign) {
	cells := len(wr)
	fwd := sign == Forward
	for o := 0; o < cells; o += 4 * m * ld {
		for k := 0; k < m; k++ {
			t1r, t1i := twr[k], twi[k]
			t2r, t2i := twr[m+k], twi[m+k]
			t3r, t3i := twr[2*m+k], twi[2*m+k]
			c0 := o + k*ld
			c1 := o + (m+k)*ld
			c2 := o + (2*m+k)*ld
			c3 := o + (3*m+k)*ld
			b0r := wr[c0 : c0+nb : c0+nb]
			b0i := wi[c0 : c0+nb : c0+nb]
			b1r := wr[c1 : c1+nb : c1+nb]
			b1i := wi[c1 : c1+nb : c1+nb]
			b2r := wr[c2 : c2+nb : c2+nb]
			b2i := wi[c2 : c2+nb : c2+nb]
			b3r := wr[c3 : c3+nb : c3+nb]
			b3i := wi[c3 : c3+nb : c3+nb]
			if fwd {
				for b := 0; b < nb; b++ {
					ar, ai := b0r[b], b0i[b]
					br, bi := cmulSoA(b1r[b], b1i[b], t1r, t1i)
					cr, ci := cmulSoA(b2r[b], b2i[b], t2r, t2i)
					dr, di := cmulSoA(b3r[b], b3i[b], t3r, t3i)
					s0r, s0i := ar+cr, ai+ci
					s1r, s1i := ar-cr, ai-ci
					s2r, s2i := br+dr, bi+di
					s3r, s3i := br-dr, bi-di
					// jt = -i·s3 = (s3i, -s3r)
					b0r[b], b0i[b] = s0r+s2r, s0i+s2i
					b1r[b], b1i[b] = s1r+s3i, s1i-s3r
					b2r[b], b2i[b] = s0r-s2r, s0i-s2i
					b3r[b], b3i[b] = s1r-s3i, s1i+s3r
				}
			} else {
				for b := 0; b < nb; b++ {
					ar, ai := b0r[b], b0i[b]
					br, bi := cmulSoA(b1r[b], b1i[b], t1r, t1i)
					cr, ci := cmulSoA(b2r[b], b2i[b], t2r, t2i)
					dr, di := cmulSoA(b3r[b], b3i[b], t3r, t3i)
					s0r, s0i := ar+cr, ai+ci
					s1r, s1i := ar-cr, ai-ci
					s2r, s2i := br+dr, bi+di
					s3r, s3i := br-dr, bi-di
					// jt = +i·s3 = (-s3i, s3r)
					b0r[b], b0i[b] = s0r+s2r, s0i+s2i
					b1r[b], b1i[b] = s1r-s3i, s1i+s3r
					b2r[b], b2i[b] = s0r-s2r, s0i-s2i
					b3r[b], b3i[b] = s1r+s3i, s1i-s3r
				}
			}
		}
	}
}

// stageRadix8Rows is the cell-major radix-8 butterfly, the planar mirror
// of stageRadix8 with the row sweep innermost. The 8-point butterfly
// touches 16 planar streams at once — double what the register file can
// hold — so the kernel runs in three passes per cell column (even-half
// 4-point DFT, odd-half 4-point DFT plus the eighth-root rotations, then
// the final radix-2 combine) staged through L1-resident scratch columns.
// float64 stores are exact, so the per-element arithmetic order is the
// same as stageRadix8 and results stay bit-identical.
func stageRadix8Rows(wr, wi []float64, m, nb, ld int, twr, twi []float64, sign Sign) {
	cells := len(wr)
	fwd := sign == Forward
	var eR, eI, vR, vI [4][soaChunkRows]float64
	for o := 0; o < cells; o += 8 * m * ld {
		for k := 0; k < m; k++ {
			base := o + k*ld
			step := m * ld
			// Even half: a0 + twiddled a2, a4, a6 -> e0..e3.
			{
				t2r, t2i := twr[m+k], twi[m+k]
				t4r, t4i := twr[3*m+k], twi[3*m+k]
				t6r, t6i := twr[5*m+k], twi[5*m+k]
				s0r := wr[base:][:nb:nb]
				s0i := wi[base:][:nb:nb]
				s2r := wr[base+2*step:][:nb:nb]
				s2i := wi[base+2*step:][:nb:nb]
				s4r := wr[base+4*step:][:nb:nb]
				s4i := wi[base+4*step:][:nb:nb]
				s6r := wr[base+6*step:][:nb:nb]
				s6i := wi[base+6*step:][:nb:nb]
				e0r, e0i := eR[0][:nb], eI[0][:nb]
				e1r, e1i := eR[1][:nb], eI[1][:nb]
				e2r, e2i := eR[2][:nb], eI[2][:nb]
				e3r, e3i := eR[3][:nb], eI[3][:nb]
				if fwd {
					for b := 0; b < nb; b++ {
						a0r, a0i := s0r[b], s0i[b]
						a2r, a2i := cmulSoA(s2r[b], s2i[b], t2r, t2i)
						a4r, a4i := cmulSoA(s4r[b], s4i[b], t4r, t4i)
						a6r, a6i := cmulSoA(s6r[b], s6i[b], t6r, t6i)
						t0r, t0i := a0r+a4r, a0i+a4i
						t1r, t1i := a0r-a4r, a0i-a4i
						p2r, p2i := a2r+a6r, a2i+a6i
						t3r, t3i := a2r-a6r, a2i-a6i
						e0r[b], e0i[b] = t0r+p2r, t0i+p2i
						e2r[b], e2i[b] = t0r-p2r, t0i-p2i
						e1r[b], e1i[b] = t1r+t3i, t1i-t3r
						e3r[b], e3i[b] = t1r-t3i, t1i+t3r
					}
				} else {
					for b := 0; b < nb; b++ {
						a0r, a0i := s0r[b], s0i[b]
						a2r, a2i := cmulSoA(s2r[b], s2i[b], t2r, t2i)
						a4r, a4i := cmulSoA(s4r[b], s4i[b], t4r, t4i)
						a6r, a6i := cmulSoA(s6r[b], s6i[b], t6r, t6i)
						t0r, t0i := a0r+a4r, a0i+a4i
						t1r, t1i := a0r-a4r, a0i-a4i
						p2r, p2i := a2r+a6r, a2i+a6i
						t3r, t3i := a2r-a6r, a2i-a6i
						e0r[b], e0i[b] = t0r+p2r, t0i+p2i
						e2r[b], e2i[b] = t0r-p2r, t0i-p2i
						e1r[b], e1i[b] = t1r-t3i, t1i+t3r
						e3r[b], e3i[b] = t1r+t3i, t1i-t3r
					}
				}
			}
			// Odd half: twiddled a1, a3, a5, a7 -> o0, then the rotated
			// co1, jo2, do3 -> v0..v3.
			{
				t1r, t1i := twr[k], twi[k]
				t3r, t3i := twr[2*m+k], twi[2*m+k]
				t5r, t5i := twr[4*m+k], twi[4*m+k]
				t7r, t7i := twr[6*m+k], twi[6*m+k]
				s1r := wr[base+step:][:nb:nb]
				s1i := wi[base+step:][:nb:nb]
				s3r := wr[base+3*step:][:nb:nb]
				s3i := wi[base+3*step:][:nb:nb]
				s5r := wr[base+5*step:][:nb:nb]
				s5i := wi[base+5*step:][:nb:nb]
				s7r := wr[base+7*step:][:nb:nb]
				s7i := wi[base+7*step:][:nb:nb]
				v0r, v0i := vR[0][:nb], vI[0][:nb]
				v1r, v1i := vR[1][:nb], vI[1][:nb]
				v2r, v2i := vR[2][:nb], vI[2][:nb]
				v3r, v3i := vR[3][:nb], vI[3][:nb]
				if fwd {
					for b := 0; b < nb; b++ {
						a1r, a1i := cmulSoA(s1r[b], s1i[b], t1r, t1i)
						a3r, a3i := cmulSoA(s3r[b], s3i[b], t3r, t3i)
						a5r, a5i := cmulSoA(s5r[b], s5i[b], t5r, t5i)
						a7r, a7i := cmulSoA(s7r[b], s7i[b], t7r, t7i)
						u0r, u0i := a1r+a5r, a1i+a5i
						u1r, u1i := a1r-a5r, a1i-a5i
						u2r, u2i := a3r+a7r, a3i+a7i
						u3r, u3i := a3r-a7r, a3i-a7i
						o1r, o1i := u1r+u3i, u1i-u3r
						o2r, o2i := u0r-u2r, u0i-u2i
						o3r, o3i := u1r-u3i, u1i+u3r
						v0r[b], v0i[b] = u0r+u2r, u0i+u2i
						v1r[b] = invSqrt2 * (o1r + o1i)
						v1i[b] = invSqrt2 * (o1i - o1r)
						v2r[b], v2i[b] = o2i, -o2r
						v3r[b] = invSqrt2 * (o3i - o3r)
						v3i[b] = -invSqrt2 * (o3r + o3i)
					}
				} else {
					for b := 0; b < nb; b++ {
						a1r, a1i := cmulSoA(s1r[b], s1i[b], t1r, t1i)
						a3r, a3i := cmulSoA(s3r[b], s3i[b], t3r, t3i)
						a5r, a5i := cmulSoA(s5r[b], s5i[b], t5r, t5i)
						a7r, a7i := cmulSoA(s7r[b], s7i[b], t7r, t7i)
						u0r, u0i := a1r+a5r, a1i+a5i
						u1r, u1i := a1r-a5r, a1i-a5i
						u2r, u2i := a3r+a7r, a3i+a7i
						u3r, u3i := a3r-a7r, a3i-a7i
						o1r, o1i := u1r-u3i, u1i+u3r
						o2r, o2i := u0r-u2r, u0i-u2i
						o3r, o3i := u1r+u3i, u1i-u3r
						v0r[b], v0i[b] = u0r+u2r, u0i+u2i
						v1r[b] = invSqrt2 * (o1r - o1i)
						v1i[b] = invSqrt2 * (o1r + o1i)
						v2r[b], v2i[b] = -o2i, o2r
						v3r[b] = -invSqrt2 * (o3r + o3i)
						v3i[b] = invSqrt2 * (o3r - o3i)
					}
				}
			}
			// Final radix-2 layer: output pair j, j+4 from e_j +/- v_j.
			for j := 0; j < 4; j++ {
				lr := wr[base+j*step:][:nb:nb]
				li := wi[base+j*step:][:nb:nb]
				hr := wr[base+(j+4)*step:][:nb:nb]
				hi := wi[base+(j+4)*step:][:nb:nb]
				ejr, eji := eR[j][:nb], eI[j][:nb]
				vjr, vji := vR[j][:nb], vI[j][:nb]
				for b := 0; b < nb; b++ {
					er, ei := ejr[b], eji[b]
					or, oi := vjr[b], vji[b]
					lr[b], li[b] = er+or, ei+oi
					hr[b], hi[b] = er-or, ei-oi
				}
			}
		}
	}
}

// stageGenericRows is the cell-major generic small-prime butterfly: the
// twiddle pass and the dense-matrix pass each sweep the chunk rows with
// the per-cell constants held in registers.
func stageGenericRows(wr, wi []float64, r, m, nb, ld int, twr, twi, wrr, wri []float64) {
	cells := len(wr)
	var tmpR, tmpI [maxDirectRadix][soaChunkRows]float64
	for o := 0; o < cells; o += r * m * ld {
		for k := 0; k < m; k++ {
			base := (r - 1) * k
			c0 := o + k*ld
			step := m * ld
			copy(tmpR[0][:nb], wr[c0:c0+nb])
			copy(tmpI[0][:nb], wi[c0:c0+nb])
			for q := 1; q < r; q++ {
				tr, ti := twr[base+q-1], twi[base+q-1]
				c := c0 + q*step
				sr := wr[c : c+nb : c+nb]
				si := wi[c : c+nb : c+nb]
				dR := tmpR[q][:nb]
				dI := tmpI[q][:nb]
				for b := 0; b < nb; b++ {
					dR[b], dI[b] = cmulSoA(sr[b], si[b], tr, ti)
				}
			}
			// Dense pass with register accumulators: the q-sum of each
			// output stays in registers instead of round-tripping the
			// destination stream once per q. The accumulation order
			// (start at q=0, add terms in q order) matches the AoS
			// stage exactly. Four cells advance per q step — each cell's
			// chain is serial in q, so independent lanes are the only
			// source of ILP here.
			for j := 0; j < r; j++ {
				rowR := wrr[j*r : j*r+r : j*r+r]
				rowI := wri[j*r : j*r+r : j*r+r]
				c := c0 + j*step
				dr := wr[c : c+nb : c+nb]
				di := wi[c : c+nb : c+nb]
				b := 0
				for ; b+4 <= nb; b += 4 {
					a0r, a0i := tmpR[0][b], tmpI[0][b]
					a1r, a1i := tmpR[0][b+1], tmpI[0][b+1]
					a2r, a2i := tmpR[0][b+2], tmpI[0][b+2]
					a3r, a3i := tmpR[0][b+3], tmpI[0][b+3]
					for q := 1; q < r; q++ {
						cr, ci := rowR[q], rowI[q]
						tR, tI := &tmpR[q], &tmpI[q]
						a0r += float64(tR[b]*cr) - float64(tI[b]*ci)
						a0i += float64(tI[b]*cr) + float64(tR[b]*ci)
						a1r += float64(tR[b+1]*cr) - float64(tI[b+1]*ci)
						a1i += float64(tI[b+1]*cr) + float64(tR[b+1]*ci)
						a2r += float64(tR[b+2]*cr) - float64(tI[b+2]*ci)
						a2i += float64(tI[b+2]*cr) + float64(tR[b+2]*ci)
						a3r += float64(tR[b+3]*cr) - float64(tI[b+3]*ci)
						a3i += float64(tI[b+3]*cr) + float64(tR[b+3]*ci)
					}
					dr[b], di[b] = a0r, a0i
					dr[b+1], di[b+1] = a1r, a1i
					dr[b+2], di[b+2] = a2r, a2i
					dr[b+3], di[b+3] = a3r, a3i
				}
				for ; b < nb; b++ {
					accR, accI := tmpR[0][b], tmpI[0][b]
					for q := 1; q < r; q++ {
						accR += float64(tmpR[q][b]*rowR[q]) - float64(tmpI[q][b]*rowI[q])
						accI += float64(tmpI[q][b]*rowR[q]) + float64(tmpR[q][b]*rowI[q])
					}
					dr[b] = accR
					di[b] = accI
				}
			}
		}
	}
}

// stageRadix2RowsUnpack is the final radix-2 combine pass fused with the
// planar→AoS unpack: the last stage of a length-n plan spans the whole row
// (2m = n), so its butterfly results are the finished spectrum and can be
// written straight into the AoS output rows, saving one full pass over the
// chunk. The arithmetic is exactly stageRadix2Rows.
func stageRadix2RowsUnpack(wr, wi []float64, m, nb, ld int, twr, twi []float64, chunk []complex128, n int) {
	for k := 0; k < m; k++ {
		tr, ti := twr[k], twi[k]
		lr := wr[k*ld:][:nb:nb]
		li := wi[k*ld:][:nb:nb]
		hr := wr[(m+k)*ld:][:nb:nb]
		hi := wi[(m+k)*ld:][:nb:nb]
		for b := 0; b < nb; b++ {
			ar, ai := lr[b], li[b]
			xr, xi := hr[b], hi[b]
			br := float64(xr*tr) - float64(xi*ti)
			bi := float64(xi*tr) + float64(xr*ti)
			row := chunk[b*n : (b+1)*n : (b+1)*n]
			row[k] = complex(ar+br, ai+bi)
			row[m+k] = complex(ar-br, ai-bi)
		}
	}
}

// stageRadix4RowsUnpack is the final radix-4 combine pass fused with the
// planar→AoS unpack (4m = n). The arithmetic is exactly stageRadix4Rows.
func stageRadix4RowsUnpack(wr, wi []float64, m, nb, ld int, twr, twi []float64, sign Sign, chunk []complex128, n int) {
	t1rs, t1is := twr[:m:m], twi[:m:m]
	t2rs, t2is := twr[m:2*m:2*m], twi[m:2*m:2*m]
	t3rs, t3is := twr[2*m:3*m:3*m], twi[2*m:3*m:3*m]
	fwd := sign == Forward
	for b := 0; b < nb; b++ {
		row := chunk[b*n : (b+1)*n : (b+1)*n]
		o0 := row[:m:m]
		o1 := row[m : 2*m : 2*m]
		o2 := row[2*m : 3*m : 3*m]
		o3 := row[3*m : 4*m : 4*m]
		wrb, wib := wr[b:], wi[b:]
		if fwd {
			for k := 0; k < m; k++ {
				ar, ai := wrb[k*ld], wib[k*ld]
				br, bi := cmulSoA(wrb[(m+k)*ld], wib[(m+k)*ld], t1rs[k], t1is[k])
				cr, ci := cmulSoA(wrb[(2*m+k)*ld], wib[(2*m+k)*ld], t2rs[k], t2is[k])
				dr, di := cmulSoA(wrb[(3*m+k)*ld], wib[(3*m+k)*ld], t3rs[k], t3is[k])
				s0r, s0i := ar+cr, ai+ci
				s1r, s1i := ar-cr, ai-ci
				s2r, s2i := br+dr, bi+di
				s3r, s3i := br-dr, bi-di
				// jt = -i·s3 = (s3i, -s3r)
				o0[k] = complex(s0r+s2r, s0i+s2i)
				o1[k] = complex(s1r+s3i, s1i-s3r)
				o2[k] = complex(s0r-s2r, s0i-s2i)
				o3[k] = complex(s1r-s3i, s1i+s3r)
			}
		} else {
			for k := 0; k < m; k++ {
				ar, ai := wrb[k*ld], wib[k*ld]
				br, bi := cmulSoA(wrb[(m+k)*ld], wib[(m+k)*ld], t1rs[k], t1is[k])
				cr, ci := cmulSoA(wrb[(2*m+k)*ld], wib[(2*m+k)*ld], t2rs[k], t2is[k])
				dr, di := cmulSoA(wrb[(3*m+k)*ld], wib[(3*m+k)*ld], t3rs[k], t3is[k])
				s0r, s0i := ar+cr, ai+ci
				s1r, s1i := ar-cr, ai-ci
				s2r, s2i := br+dr, bi+di
				s3r, s3i := br-dr, bi-di
				// jt = +i·s3 = (-s3i, s3r)
				o0[k] = complex(s0r+s2r, s0i+s2i)
				o1[k] = complex(s1r-s3i, s1i+s3r)
				o2[k] = complex(s0r-s2r, s0i-s2i)
				o3[k] = complex(s1r+s3i, s1i-s3r)
			}
		}
	}
}

// stageRadix8RowsUnpack is the final radix-8 combine pass fused with the
// planar→AoS unpack (8m = n): stageRadix8Rows with its last radix-2 layer
// writing the finished spectrum straight into the AoS output rows.
func stageRadix8RowsUnpack(wr, wi []float64, m, nb, ld int, twr, twi []float64, sign Sign, chunk []complex128, n int) {
	fwd := sign == Forward
	var eR, eI, vR, vI [4][soaChunkRows]float64
	for k := 0; k < m; k++ {
		base := k * ld
		step := m * ld
		// Even half: a0 + twiddled a2, a4, a6 -> e0..e3.
		{
			t2r, t2i := twr[m+k], twi[m+k]
			t4r, t4i := twr[3*m+k], twi[3*m+k]
			t6r, t6i := twr[5*m+k], twi[5*m+k]
			s0r := wr[base:][:nb:nb]
			s0i := wi[base:][:nb:nb]
			s2r := wr[base+2*step:][:nb:nb]
			s2i := wi[base+2*step:][:nb:nb]
			s4r := wr[base+4*step:][:nb:nb]
			s4i := wi[base+4*step:][:nb:nb]
			s6r := wr[base+6*step:][:nb:nb]
			s6i := wi[base+6*step:][:nb:nb]
			e0r, e0i := eR[0][:nb], eI[0][:nb]
			e1r, e1i := eR[1][:nb], eI[1][:nb]
			e2r, e2i := eR[2][:nb], eI[2][:nb]
			e3r, e3i := eR[3][:nb], eI[3][:nb]
			if fwd {
				for b := 0; b < nb; b++ {
					a0r, a0i := s0r[b], s0i[b]
					a2r, a2i := cmulSoA(s2r[b], s2i[b], t2r, t2i)
					a4r, a4i := cmulSoA(s4r[b], s4i[b], t4r, t4i)
					a6r, a6i := cmulSoA(s6r[b], s6i[b], t6r, t6i)
					t0r, t0i := a0r+a4r, a0i+a4i
					t1r, t1i := a0r-a4r, a0i-a4i
					p2r, p2i := a2r+a6r, a2i+a6i
					t3r, t3i := a2r-a6r, a2i-a6i
					e0r[b], e0i[b] = t0r+p2r, t0i+p2i
					e2r[b], e2i[b] = t0r-p2r, t0i-p2i
					e1r[b], e1i[b] = t1r+t3i, t1i-t3r
					e3r[b], e3i[b] = t1r-t3i, t1i+t3r
				}
			} else {
				for b := 0; b < nb; b++ {
					a0r, a0i := s0r[b], s0i[b]
					a2r, a2i := cmulSoA(s2r[b], s2i[b], t2r, t2i)
					a4r, a4i := cmulSoA(s4r[b], s4i[b], t4r, t4i)
					a6r, a6i := cmulSoA(s6r[b], s6i[b], t6r, t6i)
					t0r, t0i := a0r+a4r, a0i+a4i
					t1r, t1i := a0r-a4r, a0i-a4i
					p2r, p2i := a2r+a6r, a2i+a6i
					t3r, t3i := a2r-a6r, a2i-a6i
					e0r[b], e0i[b] = t0r+p2r, t0i+p2i
					e2r[b], e2i[b] = t0r-p2r, t0i-p2i
					e1r[b], e1i[b] = t1r-t3i, t1i+t3r
					e3r[b], e3i[b] = t1r+t3i, t1i-t3r
				}
			}
		}
		// Odd half: twiddled a1, a3, a5, a7 -> o0, co1, jo2, do3 -> v0..v3.
		{
			t1r, t1i := twr[k], twi[k]
			t3r, t3i := twr[2*m+k], twi[2*m+k]
			t5r, t5i := twr[4*m+k], twi[4*m+k]
			t7r, t7i := twr[6*m+k], twi[6*m+k]
			s1r := wr[base+step:][:nb:nb]
			s1i := wi[base+step:][:nb:nb]
			s3r := wr[base+3*step:][:nb:nb]
			s3i := wi[base+3*step:][:nb:nb]
			s5r := wr[base+5*step:][:nb:nb]
			s5i := wi[base+5*step:][:nb:nb]
			s7r := wr[base+7*step:][:nb:nb]
			s7i := wi[base+7*step:][:nb:nb]
			v0r, v0i := vR[0][:nb], vI[0][:nb]
			v1r, v1i := vR[1][:nb], vI[1][:nb]
			v2r, v2i := vR[2][:nb], vI[2][:nb]
			v3r, v3i := vR[3][:nb], vI[3][:nb]
			if fwd {
				for b := 0; b < nb; b++ {
					a1r, a1i := cmulSoA(s1r[b], s1i[b], t1r, t1i)
					a3r, a3i := cmulSoA(s3r[b], s3i[b], t3r, t3i)
					a5r, a5i := cmulSoA(s5r[b], s5i[b], t5r, t5i)
					a7r, a7i := cmulSoA(s7r[b], s7i[b], t7r, t7i)
					u0r, u0i := a1r+a5r, a1i+a5i
					u1r, u1i := a1r-a5r, a1i-a5i
					u2r, u2i := a3r+a7r, a3i+a7i
					u3r, u3i := a3r-a7r, a3i-a7i
					o1r, o1i := u1r+u3i, u1i-u3r
					o2r, o2i := u0r-u2r, u0i-u2i
					o3r, o3i := u1r-u3i, u1i+u3r
					v0r[b], v0i[b] = u0r+u2r, u0i+u2i
					v1r[b] = invSqrt2 * (o1r + o1i)
					v1i[b] = invSqrt2 * (o1i - o1r)
					v2r[b], v2i[b] = o2i, -o2r
					v3r[b] = invSqrt2 * (o3i - o3r)
					v3i[b] = -invSqrt2 * (o3r + o3i)
				}
			} else {
				for b := 0; b < nb; b++ {
					a1r, a1i := cmulSoA(s1r[b], s1i[b], t1r, t1i)
					a3r, a3i := cmulSoA(s3r[b], s3i[b], t3r, t3i)
					a5r, a5i := cmulSoA(s5r[b], s5i[b], t5r, t5i)
					a7r, a7i := cmulSoA(s7r[b], s7i[b], t7r, t7i)
					u0r, u0i := a1r+a5r, a1i+a5i
					u1r, u1i := a1r-a5r, a1i-a5i
					u2r, u2i := a3r+a7r, a3i+a7i
					u3r, u3i := a3r-a7r, a3i-a7i
					o1r, o1i := u1r-u3i, u1i+u3r
					o2r, o2i := u0r-u2r, u0i-u2i
					o3r, o3i := u1r+u3i, u1i-u3r
					v0r[b], v0i[b] = u0r+u2r, u0i+u2i
					v1r[b] = invSqrt2 * (o1r - o1i)
					v1i[b] = invSqrt2 * (o1r + o1i)
					v2r[b], v2i[b] = -o2i, o2r
					v3r[b] = -invSqrt2 * (o3r + o3i)
					v3i[b] = invSqrt2 * (o3r - o3i)
				}
			}
		}
		// Final radix-2 layer straight into the output rows.
		for j := 0; j < 4; j++ {
			ejr, eji := eR[j][:nb], eI[j][:nb]
			vjr, vji := vR[j][:nb], vI[j][:nb]
			lo := j * m
			hi := (j + 4) * m
			for b := 0; b < nb; b++ {
				er, ei := ejr[b], eji[b]
				or, oi := vjr[b], vji[b]
				row := chunk[b*n : (b+1)*n : (b+1)*n]
				row[lo+k] = complex(er+or, ei+oi)
				row[hi+k] = complex(er-or, ei-oi)
			}
		}
	}
}

// cmulSoA is the planar complex multiply (xr+i·xi)·(tr+i·ti) with the
// same intermediate roundings as the complex128 product.
func cmulSoA(xr, xi, tr, ti float64) (float64, float64) {
	return float64(xr*tr) - float64(xi*ti), float64(xi*tr) + float64(xr*ti)
}
