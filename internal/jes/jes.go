// Package jes implements a JES2-style multi-system shared job queue on
// a CF list structure (§5.1 names JES2 as a base MVS exploiter; §3.3.3
// describes exactly this use: "queueing mechanisms for workload
// distribution", shared work queues with list-transition signalling).
//
// Jobs are submitted to a shared input queue. Every system runs an
// Executor that registers list-transition interest: when the input
// queue goes non-empty the CF sets a bit in the executor's notification
// vector — observed by local polling, no interrupt — and the executor
// atomically pops a job, moves it through the active queue, runs it,
// and posts the output. Jobs in flight on a failed system are requeued
// by peers (checkpoint takeover).
package jes

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sysplex/internal/cf"
	"sysplex/internal/vclock"
)

// Errors returned by the queue.
var (
	ErrNoHandler = errors.New("jes: no handler for job class")
	ErrNotDone   = errors.New("jes: job not complete")
	ErrNotFound  = errors.New("jes: no such job")
)

// List indexes within the checkpoint structure.
const (
	inputList  = 0
	activeList = 1
	doneList   = 2
	numLists   = 3
)

// Job is one unit of batch work.
type Job struct {
	ID          string `json:"id"`
	Class       string `json:"class"`
	Payload     []byte `json:"payload"`
	SubmittedBy string `json:"submitted_by"`
	RanOn       string `json:"ran_on,omitempty"`
	Output      []byte `json:"output,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Queue is the shared job queue; all systems use the same Queue value
// (or equivalent values over the same structure).
type Queue struct {
	conn string
	ls   cf.List

	mu     sync.Mutex
	nextID uint64
}

// NewQueue creates the queue over a list structure with at least three
// lists. The conn identity is used for CF commands issued on behalf of
// the submitting side.
func NewQueue(ctx context.Context, ls cf.List, conn string) (*Queue, error) {
	if ls.Lists() < numLists {
		return nil, fmt.Errorf("jes: structure needs >= %d lists", numLists)
	}
	if err := ls.Connect(ctx, conn, nil); err != nil {
		return nil, err
	}
	return &Queue{ls: ls, conn: conn}, nil
}

// Submit places a job on the shared input queue and returns its ID.
// The empty→non-empty transition wakes every registered executor.
func (q *Queue) Submit(ctx context.Context, class string, payload []byte, submitter string) (string, error) {
	q.mu.Lock()
	q.nextID++
	id := fmt.Sprintf("JOB%06d", q.nextID)
	q.mu.Unlock()
	job := Job{ID: id, Class: class, Payload: payload, SubmittedBy: submitter}
	raw, err := json.Marshal(job)
	if err != nil {
		return "", err
	}
	if err := q.ls.Write(ctx, q.conn, inputList, id, "", raw, cf.FIFO, cf.Cond{}); err != nil {
		return "", err
	}
	return id, nil
}

// Result fetches a completed job.
func (q *Queue) Result(ctx context.Context, id string) (Job, error) {
	e, err := q.ls.Read(ctx, q.conn, id, cf.Cond{})
	if err != nil {
		return Job{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	var job Job
	if err := json.Unmarshal(e.Data, &job); err != nil {
		return Job{}, err
	}
	if e.List != doneList {
		return Job{}, fmt.Errorf("%w: %s", ErrNotDone, id)
	}
	return job, nil
}

// Pending returns the input queue depth.
func (q *Queue) Pending() int { return q.ls.Len(inputList) }

// Active returns the in-flight job count.
func (q *Queue) Active() int { return q.ls.Len(activeList) }

// Done returns the completed job count.
func (q *Queue) Done() int { return q.ls.Len(doneList) }

// RequeueOrphans moves jobs that were active on a failed system back to
// the input queue (checkpoint takeover by a peer). Returns the job IDs
// requeued.
func (q *Queue) RequeueOrphans(ctx context.Context, failedSys string) ([]string, error) {
	var requeued []string
	for _, e := range q.ls.Entries(activeList) {
		var job Job
		if err := json.Unmarshal(e.Data, &job); err != nil {
			continue
		}
		if job.RanOn != failedSys {
			continue
		}
		job.RanOn = ""
		raw, err := json.Marshal(job)
		if err != nil {
			continue
		}
		if err := q.ls.Write(ctx, q.conn, activeList, job.ID, "", raw, cf.FIFO, cf.Cond{}); err != nil {
			continue
		}
		if err := q.ls.Move(ctx, q.conn, job.ID, inputList, cf.FIFO, cf.Cond{}); err != nil {
			continue
		}
		requeued = append(requeued, job.ID)
	}
	sort.Strings(requeued)
	return requeued, nil
}

// Handler executes one job class.
type Handler func(payload []byte) ([]byte, error)

// Executor runs jobs on one system.
type Executor struct {
	sys   string
	clock vclock.Clock
	vec   *cf.BitVector
	ls    cf.List

	mu       sync.Mutex
	handlers map[string]Handler
	executed int64
	stopped  bool
	stopCh   chan struct{}
}

// NewExecutor attaches an executor for system sys to the queue's
// structure and registers transition monitoring of the input list.
func NewExecutor(ctx context.Context, ls cf.List, sys string, clock vclock.Clock) (*Executor, error) {
	if clock == nil {
		clock = vclock.Real()
	}
	e := &Executor{
		sys:      sys,
		ls:       ls,
		clock:    clock,
		vec:      cf.NewBitVector(1),
		handlers: make(map[string]Handler),
		stopCh:   make(chan struct{}),
	}
	if err := ls.Connect(ctx, sys, e.vec); err != nil {
		return nil, err
	}
	if err := ls.Monitor(ctx, sys, inputList, 0); err != nil {
		return nil, err
	}
	return e, nil
}

// Register installs the handler for a job class.
func (e *Executor) Register(class string, h Handler) {
	e.mu.Lock()
	e.handlers[class] = h
	e.mu.Unlock()
}

// Executed reports how many jobs this executor has run.
func (e *Executor) Executed() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.executed
}

// Stop halts background execution. The executor can be restarted with
// Start.
func (e *Executor) Stop() {
	e.mu.Lock()
	if !e.stopped {
		e.stopped = true
		close(e.stopCh)
	}
	e.mu.Unlock()
}

// Start launches the polling loop: the notification bit is tested
// locally (no CF access) at the given interval; when set, the executor
// claims one job — one "initiator" per member, so work spreads across
// the sysplex instead of one fast member draining the queue. Start
// after Stop resumes execution.
func (e *Executor) Start(poll time.Duration) {
	if poll <= 0 {
		poll = time.Millisecond
	}
	e.mu.Lock()
	if e.stopped || e.stopCh == nil {
		e.stopCh = make(chan struct{})
		e.stopped = false
	}
	stop := e.stopCh
	e.mu.Unlock()
	go func() {
		ticker := e.clock.NewTicker(poll)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C():
				if e.vec.Test(0) {
					e.vec.Clear(0)
					// Background initiator: no caller context to honor;
					// Stop is the lifecycle control.
					e.runOne(context.Background())
					// Re-arm: monitoring sets the bit again immediately if
					// the list is still non-empty. The next tick retries if
					// the CF was down.
					_ = e.ls.Monitor(context.Background(), e.sys, inputList, 0)
				}
			}
		}
	}()
}

// DrainOnce pops and executes jobs until the input queue is empty.
// Returns the number executed. Exported so deterministic tests (and
// callers without background goroutines) can run the loop inline.
func (e *Executor) DrainOnce(ctx context.Context) int {
	n := 0
	for {
		if !e.runOne(ctx) {
			return n
		}
		n++
	}
}

// runOne atomically claims one job. The Pop is the serialization: two
// executors can never claim the same entry.
func (e *Executor) runOne(ctx context.Context) bool {
	entry, err := e.ls.Pop(ctx, e.sys, inputList, cf.Cond{})
	if err != nil {
		return false
	}
	var job Job
	if err := json.Unmarshal(entry.Data, &job); err != nil {
		return false
	}
	// Checkpoint the claim: the job sits on the active queue marked with
	// the running system, so peers can requeue it if we die.
	job.RanOn = e.sys
	raw, _ := json.Marshal(job)
	// Best-effort checkpoint: if the CF is down the claim simply isn't
	// durable, and a peer requeues the job after takeover.
	_ = e.ls.Write(ctx, e.sys, activeList, job.ID, "", raw, cf.FIFO, cf.Cond{})

	e.mu.Lock()
	h := e.handlers[job.Class]
	e.mu.Unlock()
	if h == nil {
		job.Error = ErrNoHandler.Error() + ": " + job.Class
	} else {
		out, err := h(job.Payload)
		if err != nil {
			job.Error = err.Error()
		} else {
			job.Output = out
		}
	}
	raw, _ = json.Marshal(job)
	// Best-effort completion record; a CF outage leaves the job on the
	// active queue for peer requeue, which re-runs it (at-least-once).
	// Detached: the job has run; a cancelled submitter must not leave
	// the completion record half-posted.
	dctx := vclock.Detach(ctx)
	_ = e.ls.Write(dctx, e.sys, activeList, job.ID, "", raw, cf.FIFO, cf.Cond{})
	_ = e.ls.Move(dctx, e.sys, job.ID, doneList, cf.FIFO, cf.Cond{})
	e.mu.Lock()
	e.executed++
	e.mu.Unlock()
	return true
}
