package sim

import (
	"slices"
	"testing"
)

type pooled struct {
	v    int
	next *pooled
}

func pooledLink(x *pooled) **pooled { return &x.next }

// A pool fills a chunk of as many objects as it has handed out, up to 64,
// hands back zeroed objects, and reuses what comes back before it
// allocates again.
func TestPoolChunks(t *testing.T) {
	p := NewPool(pooledLink)
	var live []*pooled
	for i := 0; i < 300; i++ {
		x := p.Get()
		if x.v != 0 || x.next != nil {
			t.Fatalf("Get %d returned a dirty object %+v", i, *x)
		}
		x.v = i + 1
		live = append(live, x)
	}
	if want := 1 + 1 + 2 + 4 + 8 + 16 + 32 + 64 + 64 + 64 + 64; p.made != want {
		t.Fatalf("300 objects made %d in chunks, want %d", p.made, want)
	}
	for _, x := range live {
		p.Put(x)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range live {
			live[i] = p.Get()
		}
		for _, x := range live {
			p.Put(x)
		}
	}); allocs != 0 {
		t.Fatalf("reusing 300 returned objects allocates %.1f times", allocs)
	}
}

// A queue is FIFO, and removing any element by its predecessor keeps the
// rest in order, its tail included.
func TestQueueRemove(t *testing.T) {
	objs := make([]pooled, 6)
	q := NewQueue(pooledLink)
	for i := range objs {
		objs[i].v = i
		q.Push(&objs[i])
	}
	drop := func(v int) {
		var prev *pooled
		for x := q.Head(); x != nil; prev, x = x, q.Next(x) {
			if x.v == v {
				q.Remove(prev, x)
				return
			}
		}
		t.Fatalf("%d not queued", v)
	}
	drop(5) // the tail
	drop(0) // the head
	drop(3) // the middle
	q.Push(&objs[5])
	var got []int
	for x := q.Head(); x != nil; x = q.Next(x) {
		got = append(got, x.v)
	}
	if want := []int{1, 2, 4, 5}; !slices.Equal(got, want) || q.Len() != len(want) {
		t.Fatalf("queue holds %v (len %d), want %v", got, q.Len(), want)
	}
}
