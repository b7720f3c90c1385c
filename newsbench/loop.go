package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// sample is the outcome of one op.
type sample struct {
	op   *op
	due  time.Time // when the op was due (closed loop: when it was sent)
	sent time.Time
	done time.Time // reply received: the ack of a write
	err  error
	// notOK marks a write the node committed with a failed receipt.
	notOK bool

	// committed is when the write was visible as committed: the reply
	// in standalone, the block on every validator in the cluster.
	committed time.Time
	// searchable is when a search for a publish's marker returned it.
	searchable time.Time
}

func (s *sample) ok() bool { return s.err == nil }

// genLate is how late the generator sent the op.
func (s *sample) genLate() time.Duration { return s.sent.Sub(s.due) }

// byDue orders samples by due time (closed-loop clients interleave).
func byDue(samples []*sample) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].due.Before(samples[j].due) })
}

// writeRate is committed writes per second, from the first write's due
// time to the last one's commit.
func writeRate(samples []*sample) (float64, int) {
	var first, last time.Time
	n := 0
	for _, s := range samples {
		if !s.op.write() || !s.ok() || s.committed.IsZero() {
			continue
		}
		if n == 0 || s.due.Before(first) {
			first = s.due
		}
		if s.committed.After(last) {
			last = s.committed
		}
		n++
	}
	return ratio(float64(n), last.Sub(first).Seconds()), n
}

// runClosed runs each stream on its own client goroutine: a client sends
// its next op only after the previous reply. It stops sending at the
// deadline. Running out of generated ops before it is an error, so a
// fast program never silently measures a shorter window.
func runClosed(streams [][]op, window time.Duration, exec func(*sample)) ([]*sample, error) {
	start := time.Now()
	deadline := start.Add(window)
	out := make([][]*sample, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := start
			for i := range streams[c] {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				// A closed-loop op is due when the client is free; its
				// lateness is the client's own turnaround.
				s := &sample{op: &streams[c][i], due: prev, sent: now}
				exec(s)
				prev = s.done
				out[c] = append(out[c], s)
			}
			errs[c] = fmt.Errorf("client %d ran out of its %d generated ops before the deadline", c, len(streams[c]))
		}(c)
	}
	wg.Wait()
	var all []*sample
	for c := range out {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, out[c]...)
	}
	byDue(all)
	return all, nil
}

// runOpen sends the schedule at its due times, at most cap(slots) ops in
// flight. One user's writes are sent in nonce order: a write waits for
// the user's previous write to be answered. Latencies count from the due
// time, so any wait the generator imposes is charged to the op.
func runOpen(sched []op, slots chan struct{}, exec func(*sample)) []*sample {
	start := time.Now()
	out := make([]*sample, len(sched))
	userDone := map[int]chan struct{}{}
	var wg sync.WaitGroup
	for i := range sched {
		o := &sched[i]
		due := start.Add(o.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		slots <- struct{}{}
		var prev, mine chan struct{}
		if o.User >= 0 {
			prev = userDone[o.User]
			mine = make(chan struct{})
			userDone[o.User] = mine
		}
		if prev != nil {
			<-prev
		}
		s := &sample{op: o, due: due, sent: time.Now()}
		out[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			exec(s)
			if mine != nil {
				close(mine)
			}
			<-slots
		}()
	}
	wg.Wait()
	return out
}

// searchable checks that a search for a's marker returns a.
func searchable(c *client, a *article) error {
	page, err := c.search(a.Marker, 10)
	if err == nil && !pageHas(page, a.ID) {
		err = fmt.Errorf("marker %s of %s is not searchable", a.Marker, a.ID)
	}
	return err
}

// readsBack checks that a's body reads back and hashes to its CID.
func readsBack(c *client, a *article) error {
	body, err := c.readBlob(a.CID)
	if err == nil {
		err = verifyBlob(a.CID, body)
	}
	return err
}

// watcher records when each acked publish first becomes searchable by
// its marker. find reports which of the given markers are searchable.
type watcher struct {
	every time.Duration
	find  func(pending map[string]*sample) []string

	mu      sync.Mutex
	pending map[string]*sample
	stop    chan struct{}
	done    chan struct{}
}

func newWatcher(every time.Duration, find func(map[string]*sample) []string) *watcher {
	w := &watcher{every: every, find: find, pending: map[string]*sample{}, stop: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *watcher) add(s *sample) {
	w.mu.Lock()
	w.pending[s.op.Art.Marker] = s
	w.mu.Unlock()
}

func (w *watcher) loop() {
	defer close(w.done)
	// Polls are jittered, so their phase cannot lock onto the node's
	// block cadence and shift every searchable time of a run alike.
	jitter := rand.New(rand.NewSource(1))
	for {
		select {
		case <-w.stop:
			return
		case <-time.After(w.every/2 + time.Duration(jitter.Int63n(int64(w.every)))):
		}
		w.mu.Lock()
		snap := make(map[string]*sample, len(w.pending))
		for k, v := range w.pending {
			snap[k] = v
		}
		w.mu.Unlock()
		if len(snap) == 0 {
			continue
		}
		found := w.find(snap)
		now := time.Now()
		w.mu.Lock()
		for _, m := range found {
			if s, ok := w.pending[m]; ok {
				s.searchable = now
				delete(w.pending, m)
			}
		}
		w.mu.Unlock()
	}
}

// drain waits until every added marker was found, then stops the
// watcher; it returns how many were still missing at the timeout.
func (w *watcher) drain(timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		n := len(w.pending)
		w.mu.Unlock()
		if n == 0 || time.Now().After(deadline) {
			close(w.stop)
			<-w.done
			return n
		}
		time.Sleep(w.every)
	}
}
