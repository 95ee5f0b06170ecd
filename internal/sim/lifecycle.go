package sim

import (
	"sort"

	"pmp/internal/cache"
	"pmp/internal/mem"
	"pmp/internal/prefetch"
)

// LifecycleClass is the final classification of one prefetch request.
type LifecycleClass uint8

const (
	// LifecycleTimely: the fill completed before (or exactly when) the
	// first demand use needed the data.
	LifecycleTimely LifecycleClass = iota
	// LifecycleLate: a demand use hit the line while its fill was still
	// in flight, paying part of the miss latency.
	LifecycleLate
	// LifecycleUseless: the line left the cache (eviction or
	// back-invalidation) without ever being demand-touched.
	LifecycleUseless
	// LifecycleRedundant: the request was dropped at issue because the
	// line was already present or already in flight at its target level.
	LifecycleRedundant
	// LifecycleOpen: still unresolved when the snapshot or trace ended.
	LifecycleOpen
)

// String implements fmt.Stringer.
func (c LifecycleClass) String() string {
	switch c {
	case LifecycleTimely:
		return "timely"
	case LifecycleLate:
		return "late"
	case LifecycleUseless:
		return "useless"
	case LifecycleRedundant:
		return "redundant"
	case LifecycleOpen:
		return "open"
	default:
		return "invalid"
	}
}

// LifecycleEvent is one fully resolved prefetch lifecycle, suitable for
// JSONL export (`pmpsim -lifecycle-jsonl`). Cycles are absolute core
// cycles; Fill and Use are zero when the lifecycle never reached that
// stage.
type LifecycleEvent struct {
	Seq        uint64 `json:"seq"`
	Prefetcher string `json:"prefetcher"`
	Level      string `json:"level"`
	Line       uint64 `json:"line"`
	Region     uint64 `json:"region"` // 4KB region base address
	Issue      uint64 `json:"issue"`
	Fill       uint64 `json:"fill,omitempty"`
	Use        uint64 `json:"use,omitempty"`
	Class      string `json:"class"`
}

// LifecycleStats aggregates resolved prefetch lifecycles. One instance
// exists per (prefetcher, cache level) and per (prefetcher, 4KB
// region); Total sums across levels.
type LifecycleStats struct {
	Issued    uint64 // admitted into the hierarchy
	Timely    uint64
	Late      uint64
	Useless   uint64
	Redundant uint64 // dropped at issue: already present or in flight

	SlackSum    uint64 // Σ (use − fill) over timely prefetches
	LatenessSum uint64 // Σ (fill − use) over late prefetches
}

// add accumulates o into s.
func (s *LifecycleStats) add(o LifecycleStats) {
	s.Issued += o.Issued
	s.Timely += o.Timely
	s.Late += o.Late
	s.Useless += o.Useless
	s.Redundant += o.Redundant
	s.SlackSum += o.SlackSum
	s.LatenessSum += o.LatenessSum
}

// Used returns the number of prefetches that saw a demand use.
func (s LifecycleStats) Used() uint64 { return s.Timely + s.Late }

// Resolved returns the number of lifecycles with a final classification
// (excluding redundant drops, which never entered the hierarchy).
func (s LifecycleStats) Resolved() uint64 { return s.Timely + s.Late + s.Useless }

// Accuracy returns used/(used+useless), or 0 before any resolution.
func (s LifecycleStats) Accuracy() float64 {
	if s.Resolved() == 0 {
		return 0
	}
	return float64(s.Used()) / float64(s.Resolved())
}

// TimelyFraction returns timely/used, or 0 when nothing was used.
func (s LifecycleStats) TimelyFraction() float64 {
	if s.Used() == 0 {
		return 0
	}
	return float64(s.Timely) / float64(s.Used())
}

// AvgSlack returns the mean fill-to-use slack in cycles over timely
// prefetches — how much margin the prefetcher had.
func (s LifecycleStats) AvgSlack() float64 {
	if s.Timely == 0 {
		return 0
	}
	return float64(s.SlackSum) / float64(s.Timely)
}

// AvgLateness returns the mean use-to-fill wait in cycles over late
// prefetches — how much latency the demand still paid.
func (s LifecycleStats) AvgLateness() float64 {
	if s.Late == 0 {
		return 0
	}
	return float64(s.LatenessSum) / float64(s.Late)
}

// Coverage returns used/(used+demandMisses): the fraction of would-be
// misses the prefetcher covered, given the demand misses observed at
// the same level over the same window.
func (s LifecycleStats) Coverage(demandMisses uint64) float64 {
	if s.Used()+demandMisses == 0 {
		return 0
	}
	return float64(s.Used()) / float64(s.Used()+demandMisses)
}

// RegionLifecycle is the per-4KB-region aggregate.
type RegionLifecycle struct {
	Region mem.Addr // region base address
	Stats  LifecycleStats
}

// LifecycleSnapshot is the Stats-style view of one prefetcher's
// lifecycle tracking: totals, per cache level, and per 4KB region.
type LifecycleSnapshot struct {
	Prefetcher string
	Total      LifecycleStats
	PerLevel   [4]LifecycleStats // indexed by prefetch.Level
	Regions    []RegionLifecycle // sorted by issued count, descending
	Open       uint64            // issued but unresolved at snapshot time
}

func sortedRegions(regions map[mem.Addr]*LifecycleStats) []RegionLifecycle {
	out := make([]RegionLifecycle, 0, len(regions))
	for base, st := range regions {
		out = append(out, RegionLifecycle{Region: base, Stats: *st})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stats.Issued != out[j].Stats.Issued {
			return out[i].Stats.Issued > out[j].Stats.Issued
		}
		return out[i].Region < out[j].Region
	})
	return out
}

// lifecycleKey identifies an outstanding lifecycle: the target level
// disambiguates the same line prefetched into different caches.
type lifecycleKey struct {
	level prefetch.Level
	line  mem.Addr
}

// lifecycleRecord is one in-flight lifecycle between issue and
// resolution.
type lifecycleRecord struct {
	src    string // issuing prefetcher name
	issue  uint64
	fill   uint64
	filled bool
}

// lifecycleAgg accumulates resolved lifecycles for one prefetcher.
type lifecycleAgg struct {
	perLevel [4]LifecycleStats
	regions  map[mem.Addr]*LifecycleStats
}

// lifecycleTracker correlates issue records from the simulator with
// fill/use/death events from the caches and aggregates the outcome per
// prefetcher, per cache level and per 4KB region. It is created only
// when lifecycle tracing is enabled, so the untraced hot path carries a
// single nil check.
type lifecycleTracker struct {
	seq      uint64
	sink     func(LifecycleEvent) // optional JSONL-style event sink
	open     map[lifecycleKey]lifecycleRecord
	bySource map[string]*lifecycleAgg
}

func newLifecycleTracker(sink func(LifecycleEvent)) *lifecycleTracker {
	return &lifecycleTracker{
		sink:     sink,
		open:     make(map[lifecycleKey]lifecycleRecord),
		bySource: make(map[string]*lifecycleAgg),
	}
}

func (t *lifecycleTracker) agg(src string) *lifecycleAgg {
	a := t.bySource[src]
	if a == nil {
		//pmp:allocok lazy once-per-prefetcher aggregate; the tracker is nil on the benchmarked path
		a = &lifecycleAgg{regions: map[mem.Addr]*LifecycleStats{}}
		t.bySource[src] = a
	}
	return a
}

func (t *lifecycleTracker) region(a *lifecycleAgg, line mem.Addr) *LifecycleStats {
	base := line.Page()
	st := a.regions[base]
	if st == nil {
		st = &LifecycleStats{}
		a.regions[base] = st
	}
	return st
}

// issued records an admitted prefetch request.
func (t *lifecycleTracker) issued(src string, level prefetch.Level, line mem.Addr, now uint64) {
	t.open[lifecycleKey{level, line}] = lifecycleRecord{src: src, issue: now}
	a := t.agg(src)
	a.perLevel[level].Issued++
	t.region(a, line).Issued++
}

// redundant records a request dropped at issue because its line was
// already present or in flight: resolved immediately.
func (t *lifecycleTracker) redundant(src string, level prefetch.Level, line mem.Addr, now uint64) {
	a := t.agg(src)
	a.perLevel[level].Redundant++
	t.region(a, line).Redundant++
	t.emit(src, level, line, lifecycleRecord{src: src, issue: now}, LifecycleRedundant, 0)
}

// cacheEvent applies one prefetch event from the cache at level.
func (t *lifecycleTracker) cacheEvent(level prefetch.Level, ev cache.PrefetchEvent) {
	key := lifecycleKey{level, ev.Line}
	rec, ok := t.open[key]
	if !ok {
		// Untracked: an inclusive fill below the request's target
		// level, or a lifecycle discarded at a stats reset.
		return
	}
	switch ev.Kind {
	case cache.PrefetchFilled:
		rec.fill, rec.filled = ev.Cycle, true
		t.open[key] = rec
	case cache.PrefetchUsed:
		rec.fill, rec.filled = ev.FillCycle, true
		class := LifecycleTimely
		if ev.Late {
			class = LifecycleLate
		}
		t.resolve(key, rec, class, ev.Cycle)
	case cache.PrefetchDead:
		t.resolve(key, rec, LifecycleUseless, ev.Cycle)
	}
}

// resolve finalizes an outstanding lifecycle.
func (t *lifecycleTracker) resolve(key lifecycleKey, rec lifecycleRecord, class LifecycleClass, use uint64) {
	delete(t.open, key)
	a := t.agg(rec.src)
	for _, st := range []*LifecycleStats{&a.perLevel[key.level], t.region(a, key.line)} {
		switch class {
		case LifecycleTimely:
			st.Timely++
			if use >= rec.fill {
				st.SlackSum += use - rec.fill
			}
		case LifecycleLate:
			st.Late++
			if rec.fill >= use {
				st.LatenessSum += rec.fill - use
			}
		case LifecycleUseless:
			st.Useless++
		}
	}
	t.emit(rec.src, key.level, key.line, rec, class, use)
}

func (t *lifecycleTracker) emit(src string, level prefetch.Level, line mem.Addr, rec lifecycleRecord, class LifecycleClass, use uint64) {
	if t.sink == nil {
		return
	}
	t.seq++
	ev := LifecycleEvent{
		Seq:        t.seq,
		Prefetcher: src,
		Level:      level.String(),
		Line:       uint64(line),
		Region:     uint64(line.Page()),
		Issue:      rec.issue,
		Class:      class.String(),
	}
	if rec.filled {
		ev.Fill = rec.fill
	}
	if class == LifecycleTimely || class == LifecycleLate {
		ev.Use = use
	}
	t.sink(ev)
}

// flushOpen exports every unresolved lifecycle to the sink (end of a
// run) without mutating the aggregates. Keys are sorted so the event
// stream is byte-identical across runs regardless of map layout.
func (t *lifecycleTracker) flushOpen() {
	if t.sink == nil {
		return
	}
	keys := make([]lifecycleKey, 0, len(t.open))
	for key := range t.open {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		return keys[i].line < keys[j].line
	})
	for _, key := range keys {
		t.emit(t.open[key].src, key.level, key.line, t.open[key], LifecycleOpen, 0)
	}
}

// reset discards aggregates and outstanding records (warm-up boundary).
func (t *lifecycleTracker) reset() {
	clear(t.open)
	clear(t.bySource)
}

// snapshots returns one LifecycleSnapshot per observed prefetcher,
// sorted by name. Open lifecycles are attributed to their issuer.
func (t *lifecycleTracker) snapshots() []LifecycleSnapshot {
	openBySrc := map[string]uint64{}
	for _, rec := range t.open {
		openBySrc[rec.src]++
	}
	names := make([]string, 0, len(t.bySource))
	for name := range t.bySource {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]LifecycleSnapshot, 0, len(names))
	for _, name := range names {
		a := t.bySource[name]
		sn := LifecycleSnapshot{Prefetcher: name, Open: openBySrc[name]}
		for lv := range a.perLevel {
			sn.PerLevel[lv] = a.perLevel[lv]
			sn.Total.add(a.perLevel[lv])
		}
		sn.Regions = sortedRegions(a.regions)
		out = append(out, sn)
	}
	return out
}
