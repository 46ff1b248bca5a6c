package pfp

import (
	"reflect"
	"testing"
)

// TestBytesCountsEveryArray: Bytes is cap × element size summed over every
// slice field of Network, and keeps being so when a field is added.
func TestBytesCountsEveryArray(t *testing.T) {
	nw := RandomNetwork(300, 4, 100, 42)
	v := reflect.ValueOf(nw).Elem()
	var want int64
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			want += int64(f.Cap()) * int64(f.Type().Elem().Size())
		}
	}
	if got := nw.Bytes(); got != want || got == 0 {
		t.Errorf("Network.Bytes() = %d, its arrays hold %d", got, want)
	}
}
