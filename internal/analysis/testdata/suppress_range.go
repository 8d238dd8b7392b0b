// Package fixture exercises range-aware //lint:ignore handling: a
// directive preceding a multi-line construct (composite-literal element,
// case clause, statement) covers the whole construct, not just the next
// line.
package fixture

// table's directive sits above a multi-line composite-literal element;
// the flagged literals inside it are on later lines.
var table = []struct {
	a, b int
}{
	//lint:ignore intflag fixture: element spans several lines
	{
		a: 42,
		b: 42,
	},
	{
		a: 42, // this element has no directive and stays flagged
		b: 7,
	},
}

func pick(x int) int {
	switch x {
	//lint:ignore intflag fixture: whole case clause is covered
	case 1:
		return 42
	case 2:
		return 42 // flagged: the clause above does not cover this one
	}
	//lint:ignore intflag fixture: multi-line statement is covered
	y := sum(
		42,
		42,
	)
	return y
}

func sum(xs ...int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// trailing's directive follows code on its line, so it covers that line
// only; the statement on the next line stays flagged.
func trailing() int {
	a := 42 //lint:ignore intflag fixture: a trailing directive covers its own line
	b := 42
	return a + b
}

// stackedTrailing's standalone directive sits above a line that ends in
// a trailing one; the trailing directive does not stack, so the
// standalone one covers the line below it and not the one after.
func stackedTrailing() int {
	//lint:ignore intflag fixture: covers the statement below only
	a := 42 //lint:ignore intflag fixture: a trailing directive does not stack
	b := 42
	return a + b
}
