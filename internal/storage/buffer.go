package storage

import "sort"

// BufferManager implements the fragmented buffer management scheme of
// Sec. 4: each pipeline filter owns a buffer segment; segments are mapped
// into one overall buffer cache with a capacity. Under pressure the
// manager evicts rebuildable state — the dynamic join indexes — from the
// least-recently-used segments (facts themselves are never dropped; they
// are the reasoning result).
type BufferManager struct {
	capacity int64
	clock    int64
	segments map[string]*Segment

	// Evictions counts how many segments had their indexes dropped.
	Evictions int
}

// Segment is one filter's buffer segment.
type Segment struct {
	Name     string
	rel      *Relation
	lastUsed int64
	pinned   bool
}

// NewBufferManager creates a manager with the given capacity in bytes;
// capacity <= 0 disables eviction.
func NewBufferManager(capacity int64) *BufferManager {
	return &BufferManager{capacity: capacity, segments: make(map[string]*Segment)}
}

// Register attaches a relation to the named segment.
func (bm *BufferManager) Register(name string, rel *Relation) *Segment {
	s := &Segment{Name: name, rel: rel}
	bm.segments[name] = s
	return s
}

// Pin marks a segment non-evictable (e.g. the termination-strategy
// structures' host).
func (bm *BufferManager) Pin(name string) {
	if s := bm.segments[name]; s != nil {
		s.pinned = true
	}
}

// Touch records an access to the named segment and runs eviction when the
// total retained size exceeds capacity. Without a capacity nothing is ever
// evicted, so there is no recency to keep: the matcher calls this per probe.
func (bm *BufferManager) Touch(name string) {
	if bm.capacity <= 0 {
		return
	}
	bm.clock++
	if s := bm.segments[name]; s != nil {
		s.lastUsed = bm.clock
	}
	bm.maybeEvict()
}

// Usage returns the current retained bytes across all segments.
func (bm *BufferManager) Usage() int64 {
	var b int64
	//vadalint:ordered integer fold; Bytes is a pure size read
	for _, s := range bm.segments {
		if s.rel != nil {
			b += s.rel.Bytes()
		}
	}
	return b
}

func (bm *BufferManager) maybeEvict() {
	if bm.capacity <= 0 || bm.Usage() <= bm.capacity {
		return
	}
	// LRU over evictable segments that still hold indexes.
	var victims []*Segment
	for _, s := range bm.segments {
		if !s.pinned && s.rel != nil && s.rel.IndexCount() > 0 {
			victims = append(victims, s)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].lastUsed < victims[j].lastUsed })
	for _, s := range victims {
		if bm.Usage() <= bm.capacity {
			return
		}
		s.rel.DropIndexes()
		bm.Evictions++
	}
}
