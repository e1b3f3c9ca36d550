package core

import (
	"repro/internal/mpi"
)

// Put transfers size bytes from data into target's window at offset off.
// data may be nil on shape-only windows (pure traffic modeling). The local
// buffer is reusable once the surrounding epoch closes (or after a flush).
func (w *Window) Put(target int, off int64, data []byte, size int64) {
	w.addOp(rmaOp{class: opPut, target: target, off: off, data: data, size: size, dtype: TByte}, false)
}

// RPut is the request-based Put; the returned request completes when the
// transfer is fulfilled at the target. A call pending on a task rank
// returns nil, and its repeat returns the request.
func (w *Window) RPut(target int, off int64, data []byte, size int64) *mpi.Request {
	return w.addOp(rmaOp{class: opPut, target: target, off: off, data: data, size: size, dtype: TByte}, true)
}

// Get transfers size bytes from target's window at offset off into buf. buf
// is filled by the time the epoch completes (or the op's request, for RGet).
func (w *Window) Get(target int, off int64, buf []byte, size int64) {
	w.addOp(rmaOp{class: opGet, target: target, off: off, buf: buf, size: size, dtype: TByte}, false)
}

// RGet is the request-based Get.
func (w *Window) RGet(target int, off int64, buf []byte, size int64) *mpi.Request {
	return w.addOp(rmaOp{class: opGet, target: target, off: off, buf: buf, size: size, dtype: TByte}, true)
}

// Accumulate atomically combines data into target memory element-wise with
// op. Element atomicity holds per (window, target, element), as in MPI.
func (w *Window) Accumulate(target int, off int64, op AccOp, dt DType, data []byte, size int64) {
	w.addOp(rmaOp{class: opAcc, target: target, off: off, data: data, size: size, dtype: dt, op: op}, false)
}

// RAccumulate is the request-based Accumulate.
func (w *Window) RAccumulate(target int, off int64, op AccOp, dt DType, data []byte, size int64) *mpi.Request {
	return w.addOp(rmaOp{class: opAcc, target: target, off: off, data: data, size: size, dtype: dt, op: op}, true)
}

// GetAccumulate atomically fetches the previous target contents into result
// while combining data into the target with op (OpNoOp makes it an atomic
// get).
func (w *Window) GetAccumulate(target int, off int64, op AccOp, dt DType, data, result []byte, size int64) {
	w.addOp(rmaOp{class: opGetAcc, target: target, off: off, data: data, buf: result, size: size, dtype: dt, op: op}, false)
}

// RGetAccumulate is the request-based GetAccumulate.
func (w *Window) RGetAccumulate(target int, off int64, op AccOp, dt DType, data, result []byte, size int64) *mpi.Request {
	return w.addOp(rmaOp{class: opGetAcc, target: target, off: off, data: data, buf: result, size: size, dtype: dt, op: op}, true)
}

// FetchAndOp is the single-element fast path of GetAccumulate.
func (w *Window) FetchAndOp(target int, off int64, op AccOp, dt DType, operand, result []byte) {
	w.addOp(rmaOp{class: opGetAcc,
		target: target, off: off, data: operand, buf: result, size: int64(dt.Size()), dtype: dt, op: op}, false)
}

// CompareAndSwap atomically replaces the target element with swap if it
// equals compare, storing the previous value in result.
func (w *Window) CompareAndSwap(target int, off int64, dt DType, compare, swap, result []byte) {
	w.addOp(rmaOp{class: opCAS,
		target: target, off: off, cmp: compare, data: swap, buf: result, size: int64(dt.Size()), dtype: dt}, false)
}
