package fft

// The SoA (structure-of-arrays) code path: planar re/im chunk kernels for
// the batched row and column drivers. The AoS kernels operate on
// []complex128, whose 16-byte elements make the compiler shuffle
// real/imaginary pairs through registers on every butterfly; the planar
// kernels run the same arithmetic over two separate []float64 slices, which
// compiles to straight-line scalar float code with simpler addressing and
// no pair packing.
//
// Bit-identity is a hard contract: the planar stages call the same
// butterfly bodies as the AoS stages (cmul, bfly2, bfly4, rot8, bfly3,
// cos5/sin5/turnPair), in the same order, and float64 loads and stores are
// exact, so the planar path produces bit-identical spectra and the
// equivalence tests compare bit patterns, not a tolerance. Lengths the
// iterative kernel cannot factorize (Bluestein fallback) stay on the AoS
// path.
//
// Layout: the drivers pack AoS rows into pooled planar scratch at the chunk
// boundary, run every combine stage across the whole chunk — stage-major,
// so one stage's twiddle stream stays hot across all rows — and unpack on
// the way out. The stages run forward only: Backward packs each cell's
// parts into the opposite planes and unpacks them the same way, which
// costs nothing (see the package doc); the fused unpack of the row kernel
// stores swapped parts. Steady state allocates nothing: scratch comes from
// a per-plan pool (TestTransformZeroAllocs pins every entry point).

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
// per-row Transform. Backward packs real parts into wi and imaginary parts
// into wr and unpacks them the same way round. Plans without iterative
// stages (Bluestein) fall back to the per-row AoS path.
func (p *Plan) transformRowsSoA(data []complex128, rows int, sign Sign) {
	if p.stages == nil || p.n == 1 {
		p.TransformMany(data, rows, sign)
		return
	}
	n := p.n
	for r0 := 0; r0 < rows; r0 += soaChunkRows {
		nb := min(rows-r0, soaChunkRows)
		ld := soaLd(nb)
		chunk := data[r0*n : (r0+nb)*n]
		sp := p.soaRows.Get().(*soaBuf)
		wr, wi := sp.re, sp.im
		pr, pi := wr, wi // the planes real and imaginary parts pack into
		if sign == Backward {
			pr, pi = wi, wr
		}
		// Pack fused with the leading combine stages (fusedPackStages):
		// each fused stage saves one full pass over the chunk.
		f, tile := p.fusedPackStages()
		for i0 := 0; i0 < n; i0 += tile {
			i1 := min(i0+tile, n)
			packRows(pr, pi, chunk, p.perm[i0:i1], i0, nb, ld, n)
			for t := 0; t < f; t++ {
				stageRows(wr[i0*ld:i1*ld], wi[i0*ld:i1*ld], &p.stages[t], nb, ld)
			}
		}
		// The final stage spans the whole row (r·m = n), so its butterfly
		// results are the finished spectrum: fuse it with the planar→AoS
		// unpack, writing the output rows directly and saving one more
		// pass over the chunk (radix 2, 4 and 8; a final odd-radix stage
		// runs in place, then a plain copy-out).
		last := len(p.stages) - 1
		p.combineRowsSoARange(wr, wi, nb, ld, f, last)
		st := &p.stages[last]
		switch st.r {
		case 2:
			stageRadix2RowsUnpack(wr, wi, st.m, nb, ld, st.twr, st.twi, chunk, n, sign == Backward)
		case 4:
			stageRadix4RowsUnpack(wr, wi, st.m, nb, ld, st.twr, st.twi, chunk, n, sign == Backward)
		case 8:
			stageRadix8RowsUnpack(wr, wi, st.m, nb, ld, st.twr, st.twi, chunk, n, sign == Backward)
		default:
			// No fused variant: the stage runs in place and a plain
			// copy-out follows. Copies are exact, so the spectrum is the
			// same.
			stageRows(wr[:n*ld], wi[:n*ld], st, nb, ld)
			unpackRows(pr, pi, nb, ld, chunk, n)
		}
		p.soaRows.Put(sp)
	}
}

// packRows packs the cells perm of the nb AoS rows of chunk into the
// planes pr, pi from cell column i0 on: cell perm[j] of row b lands at
// [(i0+j)·ld + b].
func packRows(pr, pi []float64, chunk []complex128, perm []int, i0, nb, ld, n int) {
	for b := 0; b < nb; b++ {
		row := chunk[b*n : (b+1)*n : (b+1)*n]
		d := i0*ld + b
		for _, s := range perm {
			v := row[s]
			pr[d], pi[d] = real(v), imag(v)
			d += ld
		}
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
// intermediate complex buffer, no scatter. Backward exchanges the planes
// of the pack and the unpack. Results are bit-identical to gathering each
// column and calling Transform on it.
//
// nb must be at most soaChunkRows and the plan must have iterative stages
// (p.planar implies it); Plan2D guards both.
func (p *Plan) transformColsSoA(plane []complex128, ny, iy0, nb int, sign Sign) {
	n := p.n
	ld := soaLd(nb)
	sp := p.soaRows.Get().(*soaBuf)
	wr, wi := sp.re, sp.im
	pr, pi := wr, wi // the planes real and imaginary parts pack into
	if sign == Backward {
		pr, pi = wi, wr
	}
	f, tile := p.fusedPackStages()
	for i0 := 0; i0 < n; i0 += tile {
		i1 := min(i0+tile, n)
		perm := p.perm[i0:i1]
		for j, src := range perm {
			row := plane[src*ny+iy0 : src*ny+iy0+nb : src*ny+iy0+nb]
			dstR := pr[(i0+j)*ld:][:nb:nb]
			dstI := pi[(i0+j)*ld:][:nb:nb]
			for b, v := range row {
				dstR[b] = real(v)
				dstI[b] = imag(v)
			}
		}
		for t := 0; t < f; t++ {
			stageRows(wr[i0*ld:i1*ld], wi[i0*ld:i1*ld], &p.stages[t], nb, ld)
		}
	}
	// Unlike the row kernel, the unpack here is not fused with the final
	// stage: the final combine stage writes cell-major while the plane
	// wants contiguous row segments, and the segment copies below stream
	// both sides — the extra pass costs less than scattering the stores.
	p.combineRowsSoARange(wr, wi, nb, ld, f, len(p.stages))
	for i := 0; i < n; i++ {
		srcR := pr[i*ld:][:nb:nb]
		srcI := pi[i*ld:][:nb:nb]
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
func (p *Plan) combineRowsSoARange(wr, wi []float64, nb, ld int, lo, hi int) {
	cells := p.n * ld
	for t := lo; t < hi; t++ {
		stageRows(wr[:cells], wi[:cells], &p.stages[t], nb, ld)
	}
}

// stageRows is the planar stage dispatcher: it runs one combine stage over
// a cell-major region (a whole chunk, or one tile of the fused pack loop).
func stageRows(wr, wi []float64, st *stage, nb, ld int) {
	switch st.r {
	case 2:
		stageRadix2Rows(wr, wi, st.m, nb, ld, st.twr, st.twi)
	case 3:
		stageRadix3Rows(wr, wi, st.m, nb, ld, st.twr, st.twi)
	case 4:
		stageRadix4Rows(wr, wi, st.m, nb, ld, st.twr, st.twi)
	case 5:
		stageRadix5Rows(wr, wi, st.m, nb, ld, st.twr, st.twi)
	case 8:
		stageRadix8Rows(wr, wi, st.m, nb, ld, st.twr, st.twi)
	default:
		stageGenericRows(wr, wi, st.r, st.m, nb, ld, st.twr, st.twi, st.wrr, st.wri)
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
			lr, li := wr[lo:lo+nb:lo+nb], wi[lo:lo+nb:lo+nb]
			hr, hh := wr[hi:hi+nb:hi+nb], wi[hi:hi+nb:hi+nb]
			for b := 0; b < nb; b++ {
				br, bi := cmul(hr[b], hh[b], tr, ti)
				lr[b], li[b], hr[b], hh[b] = bfly2(lr[b], li[b], br, bi)
			}
		}
	}
}

// stageRadix4Rows is the cell-major radix-4 butterfly.
func stageRadix4Rows(wr, wi []float64, m, nb, ld int, twr, twi []float64) {
	cells := len(wr)
	for o := 0; o < cells; o += 4 * m * ld {
		for k := 0; k < m; k++ {
			t1r, t1i := twr[k], twi[k]
			t2r, t2i := twr[m+k], twi[m+k]
			t3r, t3i := twr[2*m+k], twi[2*m+k]
			c0 := o + k*ld
			c1 := o + (m+k)*ld
			c2 := o + (2*m+k)*ld
			c3 := o + (3*m+k)*ld
			b0r, b0i := wr[c0:c0+nb:c0+nb], wi[c0:c0+nb:c0+nb]
			b1r, b1i := wr[c1:c1+nb:c1+nb], wi[c1:c1+nb:c1+nb]
			b2r, b2i := wr[c2:c2+nb:c2+nb], wi[c2:c2+nb:c2+nb]
			b3r, b3i := wr[c3:c3+nb:c3+nb], wi[c3:c3+nb:c3+nb]
			for b := 0; b < nb; b++ {
				ar, ai := b0r[b], b0i[b]
				br, bi := cmul(b1r[b], b1i[b], t1r, t1i)
				cr, ci := cmul(b2r[b], b2i[b], t2r, t2i)
				dr, di := cmul(b3r[b], b3i[b], t3r, t3i)
				b0r[b], b0i[b], b2r[b], b2i[b], b1r[b], b1i[b], b3r[b], b3i[b] = bfly4(ar, ai, br, bi, cr, ci, dr, di)
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
					dR[b], dI[b] = cmul(sr[b], si[b], tr, ti)
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
// chunk. swap (Backward) stores swapped parts; the choice is made once per
// cell column, outside the row loop.
func stageRadix2RowsUnpack(wr, wi []float64, m, nb, ld int, twr, twi []float64, chunk []complex128, n int, swap bool) {
	for k := 0; k < m; k++ {
		tr, ti := twr[k], twi[k]
		lr, li := wr[k*ld:][:nb:nb], wi[k*ld:][:nb:nb]
		hr, hi := wr[(m+k)*ld:][:nb:nb], wi[(m+k)*ld:][:nb:nb]
		if swap {
			for b := 0; b < nb; b++ {
				br, bi := cmul(hr[b], hi[b], tr, ti)
				x0r, x0i, x1r, x1i := bfly2(lr[b], li[b], br, bi)
				row := chunk[b*n : (b+1)*n : (b+1)*n]
				row[k], row[m+k] = complex(x0i, x0r), complex(x1i, x1r)
			}
			continue
		}
		for b := 0; b < nb; b++ {
			br, bi := cmul(hr[b], hi[b], tr, ti)
			x0r, x0i, x1r, x1i := bfly2(lr[b], li[b], br, bi)
			row := chunk[b*n : (b+1)*n : (b+1)*n]
			row[k], row[m+k] = complex(x0r, x0i), complex(x1r, x1i)
		}
	}
}

// stageRadix4RowsUnpack is the final radix-4 combine pass fused with the
// planar→AoS unpack (4m = n). swap (Backward) stores swapped parts; the
// choice is made once per row, outside the cell loop.
func stageRadix4RowsUnpack(wr, wi []float64, m, nb, ld int, twr, twi []float64, chunk []complex128, n int, swap bool) {
	t1rs, t1is := twr[:m:m], twi[:m:m]
	t2rs, t2is := twr[m:2*m:2*m], twi[m:2*m:2*m]
	t3rs, t3is := twr[2*m:3*m:3*m], twi[2*m:3*m:3*m]
	for b := 0; b < nb; b++ {
		row := chunk[b*n : (b+1)*n : (b+1)*n]
		o0 := row[:m:m]
		o1 := row[m : 2*m : 2*m]
		o2 := row[2*m : 3*m : 3*m]
		o3 := row[3*m : 4*m : 4*m]
		wrb, wib := wr[b:], wi[b:]
		if swap {
			for k := 0; k < m; k++ {
				ar, ai := wrb[k*ld], wib[k*ld]
				br, bi := cmul(wrb[(m+k)*ld], wib[(m+k)*ld], t1rs[k], t1is[k])
				cr, ci := cmul(wrb[(2*m+k)*ld], wib[(2*m+k)*ld], t2rs[k], t2is[k])
				dr, di := cmul(wrb[(3*m+k)*ld], wib[(3*m+k)*ld], t3rs[k], t3is[k])
				x0r, x0i, x2r, x2i, x1r, x1i, x3r, x3i := bfly4(ar, ai, br, bi, cr, ci, dr, di)
				o0[k], o2[k] = complex(x0i, x0r), complex(x2i, x2r)
				o1[k], o3[k] = complex(x1i, x1r), complex(x3i, x3r)
			}
			continue
		}
		for k := 0; k < m; k++ {
			ar, ai := wrb[k*ld], wib[k*ld]
			br, bi := cmul(wrb[(m+k)*ld], wib[(m+k)*ld], t1rs[k], t1is[k])
			cr, ci := cmul(wrb[(2*m+k)*ld], wib[(2*m+k)*ld], t2rs[k], t2is[k])
			dr, di := cmul(wrb[(3*m+k)*ld], wib[(3*m+k)*ld], t3rs[k], t3is[k])
			x0r, x0i, x2r, x2i, x1r, x1i, x3r, x3i := bfly4(ar, ai, br, bi, cr, ci, dr, di)
			o0[k], o2[k] = complex(x0r, x0i), complex(x2r, x2i)
			o1[k], o3[k] = complex(x1r, x1i), complex(x3r, x3i)
		}
	}
}
