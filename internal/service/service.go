// Package service is the long-lived placement front-end of the simulated
// cloud: one Service owns the inventory (with its attached tier index),
// the online placer, and the wait queue, and serves placement and release
// requests from many concurrent callers.
//
// Requests enter through a bounded intake channel read by one apply
// goroutine. It blocks for one request, then takes whatever else is
// already waiting, up to BatchSize, without blocking again — so lone
// synchronous callers are never delayed while concurrent bursts still
// coalesce. The apply goroutine is the only writer the inventory ever
// sees: it is the one place RemainingView and the attached TierIndex may
// be read, which is what makes their lock-free aliasing safe (see the
// inventory package comment; the race-mode hammer test pins this). Every
// request carries its own response channel and the submitting caller
// blocks until the apply loop answers it.
//
// Two orderings are offered. In the default (unordered) mode the apply
// loop stamps requests with arrival sequence numbers and serves
// them in that order — the production mode, deterministic within a run but
// dependent on caller scheduling. In Ordered mode callers assign the
// sequence numbers themselves (contiguous from zero, each exactly once)
// and the apply loop holds early arrivals in a reorder buffer until their
// turn: the same request trace then yields byte-identical allocations,
// metrics, and traces at any client concurrency, because per-request
// placement depends only on inventory state, which depends only on the
// seq-ordered prefix of operations — batch boundaries cannot matter.
package service

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
)

// ErrClosed is returned for requests submitted to (or still pending in) a
// closed service.
var ErrClosed = errors.New("service: closed")

// Config describes one placement service.
type Config struct {
	// Topology and Inventory are required and must agree on node count.
	// The service takes ownership of the inventory: after New, all
	// mutations must go through Place/Release, and only the RLock'd
	// snapshots (Remaining, Available, CheckInvariants, ...) may be used
	// from other goroutines.
	Topology  *topology.Topology
	Inventory *inventory.Inventory
	// Online is the per-request placer; it must use ScanAllCenters (the
	// indexed scan). Nil gets a fresh default placer wired to Obs.
	Online *placement.OnlineHeuristic
	// BatchSize caps how many already-waiting requests the apply loop
	// takes from the intake as one batch (0 = 32).
	BatchSize int
	// IntakeCap bounds the intake channel (0 = 256). Submitters block
	// once the intake is full — admission back-pressure, not rejection.
	IntakeCap int
	// QueueCap configures the wait queue for placements that do not
	// currently fit: 0 = unbounded, > 0 = bounded, -1 = disabled (such
	// placements fail immediately with ErrInsufficient). A waiting
	// placement blocks its caller until a release frees enough capacity.
	QueueCap int
	// Policy orders the wait queue.
	Policy queue.Policy
	// Ordered switches to caller-assigned sequence numbers (PlaceAt /
	// ReleaseAt) with strict in-order apply; see the package comment.
	// Incompatible with GlobalOpt, whose results depend on batch
	// boundaries.
	Ordered bool
	// GlobalOpt places coalesced runs of placements together with the
	// global sub-optimization algorithm (Algorithm 2) instead of one by
	// one — larger batches buy lower summed DC.
	GlobalOpt bool
	// Obs, when non-nil, receives service telemetry. Events are stamped
	// with the operation's sequence number as virtual time, so Ordered
	// traces are reproducible; wall-clock batching behaviour (flush
	// counts, batch sizes) deliberately stays out of the registry and is
	// reported via Stats instead.
	Obs *obs.Registry
}

// Placement is one committed placement, returned to the caller.
type Placement struct {
	// Seq is the operation's sequence number (caller-assigned in Ordered
	// mode, arrival order otherwise).
	Seq uint64
	// Entries is the committed sparse allocation — the caller passes it
	// back to Release. The slice is the caller's to keep.
	Entries []affinity.VMEntry
	// DC is the allocation's data-center distance; Center its central
	// node.
	DC     float64
	Center topology.NodeID
}

// Stats is a point-in-time snapshot of service activity. Batching figures
// live here rather than in the obs registry because they depend on caller
// timing, which would break trace determinism.
type Stats struct {
	Ops      uint64 // operations applied
	Batches  uint64 // batches flushed
	MaxBatch uint64 // largest batch flushed
	Placed   uint64 // successful placements
	Released uint64 // successful releases
	Queued   uint64 // placements that waited in the queue
	Rejected uint64 // placements refused (queue disabled or full)
	Grown    uint64 // successful cluster grows
	Shrunk   uint64 // successful cluster shrinks
}

type opKind uint8

const (
	opPlace opKind = iota
	opRelease
	opGrow
	opShrink
)

// op is one in-flight request. The submitting goroutine blocks on done
// until the apply loop (or the close path) answers.
type op struct {
	kind    opKind
	seq     uint64
	req     model.Request
	entries []affinity.VMEntry
	done    chan result
}

type result struct {
	p   Placement
	err error
}

// Service is a concurrent placement front-end; create with New, stop with
// Close.
type Service struct {
	cfg    Config
	topo   *topology.Topology
	inv    *inventory.Inventory
	online *placement.OnlineHeuristic
	global *placement.GlobalSubOpt
	tidx   *affinity.TierIndex
	sp     affinity.SparseAlloc // apply-loop scratch

	intake chan *op
	done   chan struct{}

	closeMu sync.RWMutex
	closed  bool

	// apply-loop-owned state.
	wait     *queue.Queue
	waiters  map[uint64]*op // seq → op parked in the wait queue
	park     map[uint64]*op // Ordered mode reorder buffer: seq → early op
	applySeq uint64         // Ordered mode: next seq to apply
	arrSeq   uint64         // unordered mode: next arrival seq

	stOps, stBatches, stMaxBatch           atomic.Uint64
	stPlaced, stReleased                   atomic.Uint64
	stQueued, stRejected                   atomic.Uint64
	stGrown, stShrunk                      atomic.Uint64
	mPlaced, mReleased, mQueued, mRejected *obs.Counter
	mDC                                    *obs.Histogram
	// Delta-op counters are registered lazily on first use (apply loop
	// only), so services that never resize keep their exact metric
	// snapshots.
	mGrown, mShrunk *obs.Counter
}

// New validates the configuration, attaches a tier index to the
// inventory, and starts the apply goroutine. The returned service must be
// Closed to release it.
//
//lint:owner singlewriter
func New(cfg Config) (*Service, error) {
	if cfg.Topology == nil || cfg.Inventory == nil {
		return nil, errors.New("service: Topology and Inventory are required")
	}
	if cfg.Ordered && cfg.GlobalOpt {
		// Batch boundaries depend on caller timing, and global
		// sub-optimization results depend on batch boundaries — the
		// combination cannot honour Ordered's byte-identical guarantee.
		return nil, errors.New("service: Ordered and GlobalOpt are mutually exclusive")
	}
	online := cfg.Online
	if online == nil {
		online = &placement.OnlineHeuristic{Obs: cfg.Obs}
	}
	if online.Policy != placement.ScanAllCenters {
		return nil, fmt.Errorf("service: placer %q is not the indexed scan (ScanAllCenters)", online.Name())
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.IntakeCap <= 0 {
		cfg.IntakeCap = 256
	}
	tidx, err := cfg.Inventory.AttachTierIndex(cfg.Topology)
	if err != nil {
		return nil, fmt.Errorf("service: attaching tier index: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		topo:    cfg.Topology,
		inv:     cfg.Inventory,
		online:  online,
		global:  &placement.GlobalSubOpt{Online: online, Obs: cfg.Obs},
		tidx:    tidx,
		intake:  make(chan *op, cfg.IntakeCap),
		done:    make(chan struct{}),
		waiters: make(map[uint64]*op),
		park:    make(map[uint64]*op),
	}
	if cfg.QueueCap >= 0 {
		s.wait = queue.New(cfg.Policy, cfg.QueueCap)
		s.wait.Instrument(cfg.Obs)
	}
	s.mPlaced = cfg.Obs.Counter("service.placed")
	s.mReleased = cfg.Obs.Counter("service.released")
	s.mQueued = cfg.Obs.Counter("service.queued")
	s.mRejected = cfg.Obs.Counter("service.rejected")
	s.mDC = cfg.Obs.Histogram("service.dc", 0, 200, 20)
	go s.applyLoop()
	return s, nil
}

// Place provisions one virtual cluster, blocking until the service commits
// (or refuses) it. The request vector must span the inventory's full type
// dimension and have no negative entry (Place and Grow refuse one that
// does with an error other than ErrInsufficient). When the cluster does
// not currently fit and the wait queue is enabled, the call blocks until
// a release frees enough capacity; with the queue disabled or full it
// fails with placement.ErrInsufficient (test with errors.Is).
func (s *Service) Place(r model.Request) (Placement, error) {
	if s.cfg.Ordered {
		return Placement{}, errors.New("service: ordered service requires PlaceAt")
	}
	return s.roundTrip(&op{kind: opPlace, req: r})
}

// Release returns a placement's VMs to the inventory and wakes whatever
// queued placements now fit. Entries must be exactly the slice of a prior
// Placement (or its ToDense-equivalent sparse form).
func (s *Service) Release(entries []affinity.VMEntry) error {
	if s.cfg.Ordered {
		return errors.New("service: ordered service requires ReleaseAt")
	}
	_, err := s.roundTrip(&op{kind: opRelease, entries: entries})
	return err
}

// PlaceAt is Place with a caller-assigned sequence number (Ordered mode).
// Seqs must cover 0,1,2,... with each value submitted exactly once across
// Place and Release operations; the op is held until every lower seq has
// applied, so a gap stalls the service until Close.
func (s *Service) PlaceAt(seq uint64, r model.Request) (Placement, error) {
	if !s.cfg.Ordered {
		return Placement{}, errors.New("service: PlaceAt requires Ordered mode")
	}
	return s.roundTrip(&op{kind: opPlace, seq: seq, req: r})
}

// ReleaseAt is Release with a caller-assigned sequence number (Ordered
// mode).
func (s *Service) ReleaseAt(seq uint64, entries []affinity.VMEntry) error {
	if !s.cfg.Ordered {
		return errors.New("service: ReleaseAt requires Ordered mode")
	}
	_, err := s.roundTrip(&op{kind: opRelease, seq: seq, entries: entries})
	return err
}

// Grow extends a previously committed cluster by delta VMs per type,
// placed near the cluster's current center through the same single-writer
// apply loop as Place (placement.PlaceDeltaSparse semantics: the merged DC and
// center are returned, and the returned Entries cover only the added
// VMs — keep them, or fold them into the cluster's own entries, for the
// eventual Release). entries must describe VMs the service committed and
// still holds; the slice is only read and must not be mutated until the
// call returns. A grow that does not currently fit fails immediately
// with placement.ErrInsufficient — deadline-driven callers defer and
// retry rather than park in the wait queue.
func (s *Service) Grow(entries []affinity.VMEntry, delta model.Request) (Placement, error) {
	if s.cfg.Ordered {
		return Placement{}, errors.New("service: ordered service does not support Grow")
	}
	return s.roundTrip(&op{kind: opGrow, entries: entries, req: delta})
}

// Shrink gives back delta VMs per type from a previously committed
// cluster, picking the DC(C)-minimizing victims
// (placement.ReleaseSubsetSparse), and wakes whatever queued placements the
// freed capacity now fits. It returns the victim entries — the caller
// must subtract them from its record of the cluster. entries is only
// read and must not be mutated until the call returns.
func (s *Service) Shrink(entries []affinity.VMEntry, delta model.Request) ([]affinity.VMEntry, error) {
	if s.cfg.Ordered {
		return nil, errors.New("service: ordered service does not support Shrink")
	}
	p, err := s.roundTrip(&op{kind: opShrink, entries: entries, req: delta})
	return p.Entries, err
}

// Stats snapshots the service's activity counters.
func (s *Service) Stats() Stats {
	return Stats{
		Ops:      s.stOps.Load(),
		Batches:  s.stBatches.Load(),
		MaxBatch: s.stMaxBatch.Load(),
		Placed:   s.stPlaced.Load(),
		Released: s.stReleased.Load(),
		Queued:   s.stQueued.Load(),
		Rejected: s.stRejected.Load(),
		Grown:    s.stGrown.Load(),
		Shrunk:   s.stShrunk.Load(),
	}
}

// Close stops intake, drains every in-flight operation, fails still-parked
// ones with ErrClosed (in ascending seq order), and waits for the apply
// goroutine to exit. Closing twice returns ErrClosed.
func (s *Service) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return ErrClosed
	}
	s.closed = true
	close(s.intake)
	s.closeMu.Unlock()
	<-s.done
	return nil
}

// roundTrip submits one op and blocks for its answer. The RLock spans the
// intake send so Close cannot close the channel under a blocked sender;
// Close's Lock waits, and the apply loop keeps draining the intake, so the
// send always completes.
func (s *Service) roundTrip(o *op) (Placement, error) {
	o.done = make(chan result, 1)
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return Placement{}, ErrClosed
	}
	s.intake <- o
	s.closeMu.RUnlock()
	r := <-o.done
	return r.p, r.err
}

// applyLoop is the inventory's single writer. It blocks for one op, takes
// whatever else is already waiting in the intake (up to BatchSize) as the
// same batch, and commits the batch in order; once the intake closes it
// fails whatever is still parked.
//
//lint:owner singlewriter
func (s *Service) applyLoop() {
	defer close(s.done)
	batch := make([]*op, 0, s.cfg.BatchSize)
	for o := range s.intake {
		batch = append(batch[:0], o)
	drain:
		for len(batch) < s.cfg.BatchSize {
			select {
			case next, ok := <-s.intake:
				if !ok {
					break drain
				}
				batch = append(batch, next)
			default:
				break drain
			}
		}
		s.applyBatch(batch)
	}
	s.failAll(s.park)
	s.failAll(s.waiters)
}

// applyBatch commits one batch: in seq order through the reorder buffer
// (Ordered), or stamped with arrival seqs and served with Algorithm 2 over
// runs of placements (GlobalOpt) or op by op.
func (s *Service) applyBatch(batch []*op) {
	s.stBatches.Add(1)
	if n := uint64(len(batch)); n > s.stMaxBatch.Load() {
		s.stMaxBatch.Store(n)
	}
	if !s.cfg.Ordered {
		for _, o := range batch {
			o.seq = s.arrSeq
			s.arrSeq++
		}
	}
	switch {
	case s.cfg.Ordered:
		for _, o := range batch {
			s.park[o.seq] = o
		}
		for {
			o, ready := s.park[s.applySeq]
			if !ready {
				break
			}
			delete(s.park, s.applySeq)
			s.applySeq++
			s.applyOp(o)
		}
	case s.cfg.GlobalOpt:
		s.applyBatchGlobal(batch)
	default:
		for _, o := range batch {
			s.applyOp(o)
		}
	}
	s.stOps.Add(uint64(len(batch)))
}

// failAll answers every parked op with ErrClosed, in ascending seq order
// so shutdown behaviour is reproducible.
func (s *Service) failAll(m map[uint64]*op) {
	seqs := make([]uint64, 0, len(m))
	for seq := range m {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		m[seq].done <- result{err: ErrClosed}
		delete(m, seq)
	}
}

func (s *Service) applyOp(o *op) {
	switch o.kind {
	case opRelease:
		s.applyRelease(o)
	case opGrow:
		s.applyGrow(o)
	case opShrink:
		s.applyShrink(o)
	default:
		s.applyPlace(o)
	}
}

// applyPlace runs the allocation-free hot path: indexed sparse placement,
// then an O(entries) commit. Only ErrInsufficient means "does not fit";
// anything else is reported to the caller as a hard error.
func (s *Service) applyPlace(o *op) {
	if !nonNegative(o.req) {
		o.done <- result{err: fmt.Errorf("service: request %d: negative entry in %v", o.seq, o.req)}
		return
	}
	dc, center, err := s.online.PlaceSparse(s.tidx, o.req, &s.sp)
	if err != nil {
		if errors.Is(err, placement.ErrInsufficient) {
			s.parkWaiter(o)
			return
		}
		o.done <- result{err: err}
		return
	}
	if err := s.inv.AllocateList(s.sp.Entries); err != nil {
		o.done <- result{err: fmt.Errorf("service: committing placement %d: %w", o.seq, err)}
		return
	}
	s.finishPlace(o, append([]affinity.VMEntry(nil), s.sp.Entries...), dc, center)
}

// applyGrow extends a live cluster with the delta scan: indexed sparse
// delta placement around the cluster's current center, then the same
// O(entries) commit as a placement. Grows never park in the wait queue —
// they are deadline-driven at the caller, so "does not fit" is answered
// immediately with ErrInsufficient.
func (s *Service) applyGrow(o *op) {
	if !nonNegative(o.req) {
		o.done <- result{err: fmt.Errorf("service: grow %d: negative entry in %v", o.seq, o.req)}
		return
	}
	dc, center, err := s.online.PlaceDeltaSparse(s.tidx, o.entries, o.req, &s.sp)
	if err != nil {
		o.done <- result{err: fmt.Errorf("service: grow %d: %w", o.seq, err)}
		return
	}
	if err := s.inv.AllocateList(s.sp.Entries); err != nil {
		o.done <- result{err: fmt.Errorf("service: committing grow %d: %w", o.seq, err)}
		return
	}
	s.stGrown.Add(1)
	if s.mGrown == nil {
		s.mGrown = s.cfg.Obs.Counter("service.grown")
	}
	s.mGrown.Inc()
	s.mDC.Observe(dc)
	s.cfg.Obs.Emit("grow", float64(o.seq),
		obs.F("req", int(o.seq)),
		obs.F("center", int(center)),
		obs.F("dc", dc))
	o.done <- result{p: Placement{Seq: o.seq, Entries: append([]affinity.VMEntry(nil), s.sp.Entries...), DC: dc, Center: center}}
}

// nonNegative reports whether no entry of a request vector is negative.
// The placer would serve such a vector as its positive part and report
// success, so the apply loop refuses it; a zero-total vector is accepted,
// as on the direct placer path.
func nonNegative(r model.Request) bool {
	for _, v := range r {
		if v < 0 {
			return false
		}
	}
	return true
}

// applyShrink releases the DC-minimizing victims of a live cluster and
// offers the freed capacity to the wait queue, like a release.
func (s *Service) applyShrink(o *op) {
	victims, err := placement.ReleaseSubsetSparse(s.topo, o.entries, o.req)
	if err != nil {
		o.done <- result{err: fmt.Errorf("service: shrink %d: %w", o.seq, err)}
		return
	}
	if err := s.inv.ReleaseList(victims); err != nil {
		o.done <- result{err: fmt.Errorf("service: committing shrink %d: %w", o.seq, err)}
		return
	}
	s.stShrunk.Add(1)
	if s.mShrunk == nil {
		s.mShrunk = s.cfg.Obs.Counter("service.shrunk")
	}
	s.mShrunk.Inc()
	s.cfg.Obs.Emit("shrink", float64(o.seq), obs.F("req", int(o.seq)))
	o.done <- result{p: Placement{Seq: o.seq, Entries: victims}}
	s.drainWaiters()
}

// applyBatchGlobal serves a batch with Algorithm 2 over each maximal run
// of consecutive placements, falling back to per-request placement for
// singletons and runs the batch placer refuses; a placement with a
// negative entry stays out of the runs and is refused alone. Planning
// against RemainingView is safe here: plan and commit both live on the
// single writer, so no mutation can interleave.
func (s *Service) applyBatchGlobal(batch []*op) {
	runnable := func(o *op) bool { return o.kind == opPlace && nonNegative(o.req) }
	for i := 0; i < len(batch); {
		if !runnable(batch[i]) {
			s.applyOp(batch[i])
			i++
			continue
		}
		j := i
		for j < len(batch) && runnable(batch[j]) {
			j++
		}
		run := batch[i:j]
		i = j
		if len(run) == 1 {
			s.applyPlace(run[0])
			continue
		}
		vecs := make([]model.Request, len(run))
		for k, o := range run {
			vecs[k] = o.req
		}
		res, err := s.global.PlaceBatch(s.topo, s.inv.RemainingView(), vecs)
		if err != nil {
			for _, o := range run {
				s.applyPlace(o)
			}
			continue
		}
		for k, o := range run {
			alloc := res.Allocs[k]
			if alloc == nil {
				s.parkWaiter(o)
				continue
			}
			entries := alloc.Sparse()
			if err := s.inv.AllocateList(entries); err != nil {
				o.done <- result{err: fmt.Errorf("service: committing placement %d: %w", o.seq, err)}
				continue
			}
			dc, center := alloc.Distance(s.topo)
			s.finishPlace(o, entries, dc, center)
		}
	}
}

// parkWaiter queues a placement that does not currently fit, or refuses it
// when the queue is disabled or full.
func (s *Service) parkWaiter(o *op) {
	if s.wait == nil {
		s.stRejected.Add(1)
		s.mRejected.Inc()
		o.done <- result{err: fmt.Errorf("service: request %d: %w", o.seq, placement.ErrInsufficient)}
		return
	}
	tr := model.TimedRequest{ID: model.RequestID(o.seq), Vector: o.req, Arrival: float64(o.seq)}
	if err := s.wait.Enqueue(tr); err != nil {
		s.stRejected.Add(1)
		s.mRejected.Inc()
		o.done <- result{err: fmt.Errorf("service: request %d refused: %w (%v)", o.seq, placement.ErrInsufficient, err)}
		return
	}
	s.waiters[o.seq] = o
	s.stQueued.Add(1)
	s.mQueued.Inc()
	s.cfg.Obs.Emit("queue_admit", float64(o.seq), obs.F("req", int(o.seq)))
}

func (s *Service) applyRelease(o *op) {
	if err := s.inv.ReleaseList(o.entries); err != nil {
		o.done <- result{err: fmt.Errorf("service: release %d: %w", o.seq, err)}
		return
	}
	s.stReleased.Add(1)
	s.mReleased.Inc()
	s.cfg.Obs.Emit("release", float64(o.seq), obs.F("req", int(o.seq)))
	o.done <- result{}
	s.drainWaiters()
}

// drainWaiters serves every queued placement the freed capacity can now
// admit. GetRequests only takes requests whose aggregate demand fits the
// current availability, and that is exactly the indexed scan's admission
// test, so placement here cannot fail for capacity reasons.
func (s *Service) drainWaiters() {
	if s.wait == nil || s.wait.Len() == 0 {
		return
	}
	for _, tr := range s.wait.GetRequests(s.inv.Available()) {
		seq := uint64(tr.ID)
		o := s.waiters[seq]
		delete(s.waiters, seq)
		if o == nil {
			continue
		}
		dc, center, err := s.online.PlaceSparse(s.tidx, o.req, &s.sp)
		if err == nil {
			err = s.inv.AllocateList(s.sp.Entries)
		}
		if err != nil {
			o.done <- result{err: fmt.Errorf("service: draining request %d: %w", seq, err)}
			continue
		}
		s.finishPlace(o, append([]affinity.VMEntry(nil), s.sp.Entries...), dc, center)
	}
}

// finishPlace records a committed placement and answers its caller. The
// event timestamp is the op's seq — virtual time, so Ordered traces are
// byte-reproducible at any concurrency.
func (s *Service) finishPlace(o *op, entries []affinity.VMEntry, dc float64, center topology.NodeID) {
	s.stPlaced.Add(1)
	s.mPlaced.Inc()
	s.mDC.Observe(dc)
	s.cfg.Obs.Emit("place", float64(o.seq),
		obs.F("req", int(o.seq)),
		obs.F("center", int(center)),
		obs.F("dc", dc))
	o.done <- result{p: Placement{Seq: o.seq, Entries: entries, DC: dc, Center: center}}
}
