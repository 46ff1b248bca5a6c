package rescache

import (
	"fmt"
	"sync"
	"testing"
)

func testKey(i int) Key {
	k, err := KeyOf("bfs", "g-d", "small", uint64(i), 1)
	if err != nil {
		panic(err)
	}
	return k
}

func TestCacheGetPut(t *testing.T) {
	c := New(1 << 20)
	k := testKey(1)
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache returned a hit")
	}
	if !c.Put(k, "v1", 100) {
		t.Fatal("Put under budget rejected")
	}
	v, ok := c.Get(k)
	if !ok || v.(string) != "v1" {
		t.Fatalf("Get = %v,%v; want v1,true", v, ok)
	}
	cc := c.Counters()
	if cc.Hits != 1 || cc.Misses != 1 || cc.Stores != 1 || cc.Entries != 1 || cc.Bytes != 100 {
		t.Fatalf("counters = %+v", cc)
	}
}

func TestCacheEvictionUnderBudget(t *testing.T) {
	c := New(300)
	for i := 0; i < 5; i++ {
		c.Put(testKey(i), i, 100)
	}
	cc := c.Counters()
	if cc.Bytes > 300 {
		t.Fatalf("resident bytes %d exceed budget 300", cc.Bytes)
	}
	if cc.Entries != 3 || cc.Evictions != 2 {
		t.Fatalf("entries=%d evictions=%d; want 3,2", cc.Entries, cc.Evictions)
	}
	// LRU order: the two oldest (0, 1) were evicted, 2..4 remain.
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(testKey(i)); ok {
			t.Fatalf("key %d should have been evicted", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("key %d should be resident", i)
		}
	}
}

func TestCacheLRUTouchOnGet(t *testing.T) {
	c := New(300)
	for i := 0; i < 3; i++ {
		c.Put(testKey(i), i, 100)
	}
	c.Get(testKey(0)) // 0 becomes most recent; 1 is now coldest
	c.Put(testKey(3), 3, 100)
	if _, ok := c.Get(testKey(1)); ok {
		t.Fatal("key 1 should have been the LRU victim")
	}
	if _, ok := c.Get(testKey(0)); !ok {
		t.Fatal("recently-touched key 0 was evicted")
	}
}

func TestCacheOversizedEntryRejected(t *testing.T) {
	c := New(100)
	if c.Put(testKey(1), "big", 101) {
		t.Fatal("entry above the whole budget was accepted")
	}
	cc := c.Counters()
	if cc.Rejects != 1 || cc.Entries != 0 {
		t.Fatalf("counters = %+v; want 1 reject, 0 entries", cc)
	}
}

func TestCacheReplaceAccountsBytes(t *testing.T) {
	c := New(1000)
	k := testKey(1)
	c.Put(k, "a", 100)
	c.Put(k, "b", 250)
	cc := c.Counters()
	if cc.Entries != 1 || cc.Bytes != 250 {
		t.Fatalf("after replace: entries=%d bytes=%d; want 1,250", cc.Entries, cc.Bytes)
	}
	if v, _ := c.Get(k); v.(string) != "b" {
		t.Fatalf("replace kept the old value %v", v)
	}
}

func TestCacheConcurrent(t *testing.T) {
	// Hammer the cache from many goroutines; correctness here is "no
	// race, budget respected" (run under -race in CI).
	c := New(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := testKey((g*31 + i) % 64)
				if v, ok := c.Get(k); ok {
					if fmt.Sprint(v) == "" {
						t.Error("empty value resident")
					}
				} else {
					c.Put(k, fmt.Sprintf("v%d", i), 1<<10)
				}
			}
		}(g)
	}
	wg.Wait()
	if cc := c.Counters(); cc.Bytes > cc.Budget {
		t.Fatalf("resident %d bytes over budget %d", cc.Bytes, cc.Budget)
	}
}
