package serve

import (
	"context"
	"sync"

	"galois/internal/inputs"
	"galois/internal/rescache"
)

// cachedInput is one built input cell. Exclusive inputs (pfp's mutable
// network) carry a run mutex: the holder has exclusive use of the data for
// the duration of one job, and Reset restores the initial state before
// every run, so serialized jobs all observe the same deterministic input.
type cachedInput struct {
	data any

	exclusive bool
	runMu     sync.Mutex
}

// defaultInputCacheBytes is the input budget of a server whose result cache
// is off (Config.CacheBytes 0): cmd/galoisd's default for -cache-bytes.
const defaultInputCacheBytes = 64 << 20

// inputCache shares built inputs between jobs. It is a view over a second
// rescache.Cache — the same byte-budgeted LRU that holds results — keyed by
// rescache.KeyOfInput(family, scale, seed) and charged what Kind.Size
// reports, so what never-repeated client seeds can pin is bounded by the
// budget. Construction runs outside the cache lock (inputs can be hundreds
// of megabytes), under a Flight so concurrent first requests build each
// cell exactly once. An input larger than the whole budget is built, used
// by its job and dropped. A job keeps the cell it was handed whatever the
// cache does meanwhile: an Exclusive cell evicted while a job holds its
// runMu finishes on its own copy and the next request builds a fresh one,
// which Reset makes indistinguishable.
type inputCache struct {
	cache  *rescache.Cache
	flight *rescache.Flight
}

func newInputCache(budget int64) *inputCache {
	return &inputCache{cache: rescache.New(budget), flight: rescache.NewFlight()}
}

// get returns the built input cell for kind at (scale, seed).
func (c *inputCache) get(kind *Kind, scale string, seed uint64) (*cachedInput, error) {
	key := rescache.KeyOfInput(kind.Family, scale, seed)
	if v, ok := c.cache.Get(key); ok {
		return v.(*cachedInput), nil
	}
	// Builds are not cancelled: whoever waits, waits for the cell.
	v, err, _ := c.flight.Do(context.Background(), key, func() (any, error) {
		// A build that landed between the lookup above and this flight.
		if v, ok := c.cache.Get(key); ok {
			return v, nil
		}
		sc, err := inputs.ScaleByName(scale)
		if err != nil {
			return nil, err
		}
		ent := &cachedInput{data: kind.Build(sc, seed), exclusive: kind.Exclusive}
		size := int64(cacheEntryOverhead)
		if kind.Size != nil {
			size += kind.Size(ent.data)
		}
		c.cache.Put(key, ent, size)
		return ent, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*cachedInput), nil
}
