package bl_test

import (
	"bytes"
	"reflect"
	"testing"

	. "pathflow/internal/bl"
)

// FuzzProfileLoad throws arbitrary bytes at the profile loader against
// the paper's running example. Load must never panic, and a profile it
// accepts must survive Save → Load unchanged. Seeds: the valid saved
// profile, plus the checked-in corpus under testdata/fuzz (which
// includes a path with an out-of-range interior edge).
func FuzzProfileLoad(f *testing.F) {
	prog, pp := exampleProgramProfile(f)
	var buf bytes.Buffer
	if err := pp.Save(&buf, prog); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data), prog)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Save(&out, prog); err != nil {
			t.Fatalf("re-save of an accepted profile: %v", err)
		}
		again, err := Load(&out, prog)
		if err != nil {
			t.Fatalf("re-load of a saved profile: %v", err)
		}
		if len(again.Funcs) != len(got.Funcs) {
			t.Fatalf("round trip changed the function set: %d → %d", len(got.Funcs), len(again.Funcs))
		}
		for name, pr := range got.Funcs {
			if !again.Funcs[name].Equal(pr) || !reflect.DeepEqual(again.Funcs[name].R, pr.R) {
				t.Fatalf("round trip changed %s", name)
			}
		}
	})
}
