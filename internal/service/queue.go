package service

// request is one admitted request waiting for (or holding) a worker
// slot. id doubles as the instance selector: request j runs the request
// part's instance j mod len(instances).
type request struct {
	id      uint64
	arrival uint64 // absolute simulated cycle of arrival
}

// queue is the bounded FIFO admission buffer. A fixed ring — the
// steady-state serving loop performs no allocation.
type queue struct {
	buf  []request
	head int
	n    int
}

func newQueue(capacity int) queue {
	return queue{buf: make([]request, capacity)}
}

// push admits r; false means the queue is full (the caller records a
// drop).
func (q *queue) push(r request) bool {
	if q.n == len(q.buf) {
		return false
	}
	q.buf[(q.head+q.n)%len(q.buf)] = r
	q.n++
	return true
}

// pop removes the oldest request; false means empty.
func (q *queue) pop() (request, bool) {
	if q.n == 0 {
		return request{}, false
	}
	r := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return r, true
}

func (q *queue) empty() bool { return q.n == 0 }

// feed is one open-loop arrival stream being offered to a bounded
// queue: the cell's own for a self-clocked cell, the dispatcher's for a
// multi-core one.
type feed struct {
	arr       *Arrivals
	next      uint64 // cycle of the next arrival (valid while !exhausted)
	generated uint64
	limit     uint64 // requests to offer in all
}

// newFeed seeds the cell's arrival process; request ids count from 0.
func newFeed(cfg Config, cl Cell, seed int64) (*feed, error) {
	spec := cfg.Arrivals
	spec.Rate = cl.Rate
	arr, err := NewArrivals(spec, seed)
	if err != nil {
		return nil, err
	}
	return &feed{arr: arr, next: arr.Next(), limit: uint64(cfg.Requests)}, nil
}

func (f *feed) exhausted() bool { return f.generated >= f.limit }

// offer pushes every arrival due at or before now into q and reports
// how many were due and how many of those the full queue rejected.
// Afterwards the next arrival, if any, is strictly in the future.
func (f *feed) offer(now uint64, q *queue) (arrived, dropped uint64) {
	for !f.exhausted() && f.next <= now {
		arrived++
		if !q.push(request{id: f.generated, arrival: f.next}) {
			dropped++
		}
		f.generated++
		if !f.exhausted() {
			f.next = f.arr.Next()
		}
	}
	return arrived, dropped
}
