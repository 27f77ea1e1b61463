package lang

import "testing"

// FuzzBuild feeds arbitrary source to the .tr front end at every cache
// count from 1 to 6: Build must return a protocol or a typed error and
// never panic. The committed corpus holds small valid and near-valid
// programs. Keep seeds to a few hundred bytes: with a multi-kilobyte
// seed the fuzz engine has been seen to stall for whole runs.
func FuzzBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		for n := 1; n <= 6; n++ {
			p, err := Build(src, n)
			if (p == nil) == (err == nil) {
				t.Fatalf("Build(%q, %d) = %v, %v; want a protocol or an error", src, n, p, err)
			}
		}
	})
}
