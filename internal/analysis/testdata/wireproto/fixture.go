// Package fixture exercises the wireproto analyzer: lintwire tables
// must be collision-free, and index tables must cover every
// non-catch-all code.
package fixture

// lintwire: table opcodes
const (
	opRead  uint8 = 1
	opWrite uint8 = 2
	opDup   uint8 = 2 // want `wire table opcodes collision: opWrite and opDup share byte value 2`
)

// lintwire: table statuses
const (
	stOK    uint8 = 0
	stBad   uint8 = 1
	stGone  uint8 = 2
	stOther uint8 = 255
)

// lintwire: index-of statuses
var stNames = [...]string{"ok", "bad"} // want `index table stNames has 2 entries but wire table statuses constant stGone = 2 is out of range`

// lintwire: index-of nosuch
var orphan = [...]string{"x"} // want `lintwire index-of names unknown wire table "nosuch"`

// An unannotated block is not a wire table: values may repeat.
const (
	plainA uint8 = 1
	plainB uint8 = 1
)

var _ = []any{opRead, opWrite, opDup, stOK, stBad, stGone, stOther, stNames, orphan, plainA, plainB}
