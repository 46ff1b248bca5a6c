package rescache

import "sync"

// entry is one resident cache line. Entries form an intrusive doubly-linked
// LRU list (head = most recently used); the map is used for lookup and
// delete only and is never ranged, so cache behavior is independent of map
// iteration order.
type entry struct {
	key        Key
	val        any
	size       int64
	prev, next *entry
}

// Counters is a point-in-time snapshot of a Cache's statistics.
type Counters struct {
	// Hits/Misses count Get outcomes; Stores counts successful Puts,
	// Evictions counts entries pushed out by the byte budget, Rejects
	// counts Puts refused because a single entry exceeded the whole
	// budget.
	Hits, Misses, Stores, Evictions, Rejects uint64
	// Entries and Bytes describe current residency; Budget is the
	// configured byte budget.
	Entries int
	Bytes   int64
	Budget  int64
}

// Cache is a byte-budget LRU over opaque result values, safe for concurrent
// use. Values are treated as immutable once stored: callers must copy
// before mutating what Get returns.
type Cache struct {
	mu     sync.Mutex
	budget int64
	m      map[Key]*entry
	head   *entry // most recently used
	tail   *entry // least recently used
	bytes  int64

	hits, misses, stores, evictions, rejects uint64
}

// New returns a cache with the given byte budget. Budgets <= 0 would admit
// nothing; New clamps them to 1 so a zero-value misconfiguration degrades
// to "reject everything" rather than dividing the serving path.
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = 1
	}
	return &Cache{budget: budget, m: make(map[Key]*entry)}
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.moveFront(e)
	return e.val, true
}

// Put stores v under k, charging size bytes against the budget and evicting
// least-recently-used entries until the cache fits. A single entry larger
// than the whole budget is rejected (stored nowhere, counted in Rejects).
// Storing an existing key replaces its value and size.
func (c *Cache) Put(k Key, v any, size int64) bool {
	if size <= 0 {
		size = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		c.rejects++
		return false
	}
	if e, ok := c.m[k]; ok {
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.moveFront(e)
	} else {
		e = &entry{key: k, val: v, size: size}
		c.m[k] = e
		c.pushFront(e)
		c.bytes += size
	}
	c.stores++
	// Evict from the cold end until we fit. The just-stored entry is at
	// the head and fits the budget by the check above, so the loop always
	// terminates with at least it resident.
	for c.bytes > c.budget && c.tail != nil {
		c.evict(c.tail)
	}
	return true
}

// Counters snapshots the cache's statistics.
func (c *Cache) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Counters{
		Hits: c.hits, Misses: c.misses, Stores: c.stores,
		Evictions: c.evictions, Rejects: c.rejects,
		Entries: len(c.m), Bytes: c.bytes, Budget: c.budget,
	}
}

// evict removes e under the budget pressure path. Caller holds c.mu.
func (c *Cache) evict(e *entry) {
	c.unlink(e)
	delete(c.m, e.key)
	c.bytes -= e.size
	c.evictions++
}

// --- intrusive LRU list (caller holds c.mu) ---

func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
