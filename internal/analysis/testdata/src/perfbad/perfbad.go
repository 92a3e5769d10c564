// Package perfbad holds malformed //perf: annotations: the perfannot
// self-check must flag every one, because a malformed annotation
// silently weakens the other analyzers. The block comments carry the
// expectations so they don't become part of the annotation under test.
package perfbad

//perf:warm fixture: misspelled marker // want `unknown //perf: marker "warm"`
func mislabeled() int { return 0 }

/* want `//perf:hot annotation requires a reason` */ //perf:hot
func reasonless() int                                { return 0 }

func misplaced() int {
	//perf:hot fixture: attached to a statement, not a declaration // want `//perf:hot must annotate a function declaration`
	x := 1
	return x
}

/* want `//perf:alloc-ok annotation requires a reason` */ //perf:alloc-ok
var fixtureTable = []int{1, 2, 3}

//perf:cold fixture: a well-formed annotation stays silent
func valid() []int { return fixtureTable }
