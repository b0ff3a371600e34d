package core

import "testing"

// FuzzClassifierIndex drives the indexed classifier and the scan oracle
// (index_test.go) with a fuzzer-chosen domain seed and operation sequence
// — registrations, explicit significant and insignificant marks, in any
// order and possibly contradicting each other — and requires both to agree
// on every tracked status and both anchor sets after each operation. The
// seed corpus holds differential-test runs on domains where all three id
// sets pass indexMin, so each switches from scan to index partway through.
func FuzzClassifierIndex(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 4, 0, 8, 2, 3, 3, 7, 1, 11})
	for _, seed := range []int64{3, 13, 20} {
		sp, pool, err := classifierDomain(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, encodeClassifierOps(randomClassifierOps(seed, sp, pool)))
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		sp, pool, err := classifierDomain(seed)
		if err != nil {
			t.Skip(err)
		}
		checkClassifierOps(t, sp, pool, decodeClassifierOps(data, len(pool)))
	})
}
