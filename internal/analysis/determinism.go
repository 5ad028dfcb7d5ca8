package analysis

import "strings"

// deterministicPkgs are the internal packages covered by the determinism
// contract: given identical inputs (snapshot, seed, config) they must
// produce byte-identical outputs, so wall clocks and ambient randomness
// are forbidden. The list mirrors ARCHITECTURE.md's "Determinism
// contract" section.
var deterministicPkgs = []string{
	"mpc", "orbit", "texture", "stablematch", "chaos", "netem",
	"routing", "experiments",
}

// IsDeterministicPkg reports whether the import path names a package
// (or subpackage) bound by the determinism contract. Matching is on the
// "internal/<name>" path segment so it holds for the real module and for
// analyzer testdata alike.
func IsDeterministicPkg(path string) bool {
	for _, name := range deterministicPkgs {
		seg := "internal/" + name
		i := strings.Index(path, seg)
		if i < 0 {
			continue
		}
		if i > 0 && path[i-1] != '/' {
			continue
		}
		rest := path[i+len(seg):]
		if rest == "" || rest[0] == '/' {
			return true
		}
	}
	return false
}
