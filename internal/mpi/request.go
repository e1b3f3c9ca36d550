package mpi

// Request is the internal object behind an MPI_REQUEST handle. The RMA layer
// (internal/core) specializes requests as epoch-opening, epoch-closing or
// flush requests by attaching completion hooks; the two-sided layer uses
// them for Isend/Irecv.
type Request struct {
	rank *Rank
	done bool
	dead bool    // poisoned by its owner (Poison): Wait and OnComplete panic
	err  error   // failure cause; the request is done but unsuccessful
	data []byte  // received payload, for receive requests
	recv *recvOp // receive bookkeeping, for receive requests

	// release(owner) runs once, when Wait hands the done request back (Init).
	release func(any)
	owner   any

	// onComplete hooks run (in kernel or engine context) when the request
	// completes; used by internal/core to chain epoch state machines.
	onComplete []func()
}

// NewRequest creates an incomplete request owned by rank r.
func NewRequest(r *Rank) *Request { return &Request{rank: r} }

// Init makes q an incomplete request owned by rank r: the NewRequest of a
// request embedded in a longer-lived object (an RMA epoch owns its closing
// request) instead of allocated on its own. When release is not nil, Wait
// calls release(owner) once, as it hands q back done: that is MPI's
// MPI_REQUEST_NULL point, after which q is dead to its caller and the owner
// may reuse it. The call is capture-free, so Init allocates nothing.
func (q *Request) Init(r *Rank, release func(any), owner any) {
	*q = Request{rank: r, release: release, owner: owner}
}

// handBack tells q's owner, once, that Wait returned q done.
func (q *Request) handBack() {
	if fn := q.release; fn != nil {
		q.release = nil
		fn(q.owner)
	}
}

// Poison marks q dead in place of its reuse: Wait and OnComplete on it
// panic, while Err still reports how it ended. A testing aid for owners
// that recycle their requests (core.SetDebugPoisonRetired).
func (q *Request) Poison() { q.dead = true }

// checkLive panics on a poisoned request.
func (q *Request) checkLive() {
	if q.dead {
		panic("mpi: request used after Wait handed it back to its owner")
	}
}

// NewCompletedRequest returns a request already flagged complete. The
// paper's nonblocking epoch-opening routines return exactly this: "a dummy
// request object that is flagged as completed at creation time". Every call
// on one rank returns that rank's single instance: a done request is
// immutable — OnComplete runs its hook at once and stores nothing, Complete
// and Fail return before touching a field — so sharing it is unobservable,
// and epochs are opened far too often to mint a fresh dummy each time. A nil
// rank (requests owned by no rank) gets a fresh one.
func NewCompletedRequest(r *Rank) *Request {
	if r == nil {
		return &Request{done: true}
	}
	return &r.completed
}

// NewFailedRequest creates a request already completed unsuccessfully with
// err as its cause. The RMA layer returns these for nonblocking calls made
// on an already-poisoned (aborted) window, so the caller's Wait/Test
// observes the window's error instead of a hang or an unrelated panic.
func NewFailedRequest(r *Rank, err error) *Request {
	return &Request{rank: r, done: true, err: err}
}

// Done reports completion without driving progress.
func (q *Request) Done() bool { return q == nil || q.done }

// OnComplete registers fn to run when the request completes. If the request
// is already complete, fn runs immediately.
func (q *Request) OnComplete(fn func()) {
	q.checkLive()
	if q.done {
		fn()
		return
	}
	q.onComplete = append(q.onComplete, fn)
}

// Err returns the failure that completed the request, or nil for a pending
// or successful request. Waiters that observe Done must check Err before
// trusting the operation's effects.
func (q *Request) Err() error {
	if q == nil {
		return nil
	}
	return q.err
}

// Fail completes the request unsuccessfully: waiters wake as with Complete,
// but Err reports the cause. internal/core uses it to unwind epoch waiters
// when an epoch aborts instead of completing. A no-op on a done request.
func (q *Request) Fail(err error) {
	if q.done {
		return
	}
	q.err = err
	q.Complete()
}

// Complete marks the request done, runs hooks and wakes the owning rank.
// Safe to call from kernel (NIC/engine) context.
func (q *Request) Complete() {
	if q.done {
		return
	}
	q.done = true
	for _, fn := range q.onComplete {
		fn()
	}
	q.onComplete = nil
	if q.rank != nil {
		q.rank.Wake.Fire()
	}
}
