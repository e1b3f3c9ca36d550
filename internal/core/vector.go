package core

// Strided (vector) RMA operations — the equivalent of MPI's vector target
// datatypes, which Section VI-C highlights as one of the programmer's
// tools for reasoning about disjoint memory accesses under the reorder
// flags ("the disp, target_datatype, and count parameters ... can be
// leveraged for reasoning about data access overlapping").
//
// A vector access touches `count` blocks of `blockLen` bytes, the k-th
// block starting at off + k*stride in the target window. The payload on
// the wire is the packed count*blockLen bytes.

// vecShape describes the strided layout of a vector op.
type vecShape struct {
	count    int64
	blockLen int64
	stride   int64
}

// span returns the extent of the strided region from its start offset.
func (v vecShape) span() int64 {
	if v.count == 0 {
		return 0
	}
	return (v.count-1)*v.stride + v.blockLen
}

// PutVector writes count blocks of blockLen bytes, stride bytes apart,
// into target's window starting at off. data holds the packed blocks
// (count*blockLen bytes) and may be nil on shape-only windows.
func (w *Window) PutVector(target int, off int64, count, blockLen, stride int64, data []byte) {
	v := vecShape{count: count, blockLen: blockLen, stride: stride}
	w.addOp(rmaOp{class: opPut, target: target, off: off, data: data, size: count * blockLen, dtype: TByte, vec: &v}, false)
}

// GetVector reads count strided blocks from target's window into buf
// (packed, count*blockLen bytes).
func (w *Window) GetVector(target int, off int64, count, blockLen, stride int64, buf []byte) {
	v := vecShape{count: count, blockLen: blockLen, stride: stride}
	w.addOp(rmaOp{class: opGet, target: target, off: off, buf: buf, size: count * blockLen, dtype: TByte, vec: &v}, false)
}

// applyPutVector scatters packed data into the strided target region.
func (w *Window) applyPutVector(off int64, data []byte, v vecShape) {
	if w.buf == nil || data == nil {
		return
	}
	for k := int64(0); k < v.count; k++ {
		dst := off + k*v.stride
		copy(w.buf[dst:dst+v.blockLen], data[k*v.blockLen:(k+1)*v.blockLen])
	}
}

// snapshotVector gathers the strided target region into a packed copy.
func (w *Window) snapshotVector(off int64, v vecShape) []byte {
	if w.buf == nil {
		return nil
	}
	out := make([]byte, v.count*v.blockLen)
	for k := int64(0); k < v.count; k++ {
		src := off + k*v.stride
		copy(out[k*v.blockLen:(k+1)*v.blockLen], w.buf[src:src+v.blockLen])
	}
	return out
}
