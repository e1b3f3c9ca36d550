package core

import (
	"testing"

	"repro/internal/mpi"
)

func TestPutVectorStrided(t *testing.T) {
	w, rt := testWorld(t, 2)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Lock(1, false)
			// 3 blocks of 2 bytes every 8 bytes.
			win.PutVector(1, 4, 3, 2, 8, []byte{1, 2, 3, 4, 5, 6})
			win.Unlock(1)
		}
		r.Barrier()
		if r.ID == 1 {
			b := win.Bytes()
			want := map[int]byte{4: 1, 5: 2, 12: 3, 13: 4, 20: 5, 21: 6}
			for off, v := range want {
				if b[off] != v {
					t.Errorf("byte %d = %d, want %d", off, b[off], v)
				}
			}
			// Gaps untouched.
			if b[6] != 0 || b[11] != 0 || b[14] != 0 {
				t.Error("strided put wrote into gaps")
			}
		}
		win.Quiesce()
	})
}

func TestGetVectorStrided(t *testing.T) {
	w, rt := testWorld(t, 2)
	var got []byte
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew})
		if r.ID == 1 {
			for i := range win.Bytes() {
				win.Bytes()[i] = byte(i)
			}
		}
		r.Barrier()
		if r.ID == 0 {
			buf := make([]byte, 6)
			win.Lock(1, false)
			win.GetVector(1, 10, 3, 2, 16, buf)
			win.Unlock(1)
			got = buf
		}
		r.Barrier()
		win.Quiesce()
	})
	want := []byte{10, 11, 26, 27, 42, 43}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GetVector got %v, want %v", got, want)
		}
	}
}

func TestVectorSelf(t *testing.T) {
	w, rt := testWorld(t, 1)
	runJob(t, w, func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 32, WinOptions{Mode: ModeNew})
		win.Lock(0, true)
		win.PutVector(0, 0, 2, 1, 4, []byte{9, 8})
		win.Unlock(0)
		if win.Bytes()[0] != 9 || win.Bytes()[4] != 8 {
			t.Errorf("self vector put wrong: %v", win.Bytes()[:8])
		}
		win.Quiesce()
	})
}

func TestVectorBoundsChecked(t *testing.T) {
	w, rt := testWorld(t, 2)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 16, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Lock(1, false)
			win.PutVector(1, 0, 3, 2, 8, nil) // span 18 > 16
			win.Unlock(1)
		}
	})
	if err == nil {
		t.Fatal("out-of-bounds vector should fail")
	}
}

func TestVectorBadShapePanics(t *testing.T) {
	w, rt := testWorld(t, 2)
	err := w.Run(func(r *mpi.Rank) {
		win := rt.CreateWindow(r, 64, WinOptions{Mode: ModeNew})
		if r.ID == 0 {
			win.Lock(1, false)
			win.PutVector(1, 0, 2, 8, 4, nil) // stride < blockLen
			win.Unlock(1)
		}
	})
	if err == nil {
		t.Fatal("stride < blockLen should fail")
	}
}
