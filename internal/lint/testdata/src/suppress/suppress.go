// Package suppress exercises the iobt:allow escape hatch itself: an
// allow comment with no reason is a finding (and suppresses nothing),
// naming an unknown analyzer is a finding, and so is a reasoned allow
// that covers no finding.
package suppress

import "time"

//iobt:allow detrand // want `iobt:allow detrand has no reason`
var t0 = time.Now() // want `time\.Now is a wall-clock read`

//iobt:allow nosuchanalyzer the rule this refers to does not exist // want `iobt:allow names unknown analyzer "nosuchanalyzer"`
var label = "x"

//iobt:allow detrand benchmarks the fixture loader on the host, outside the simulated world
var t1 = time.Now()

//iobt:allow detrand formats a duration, which reads no clock // want `iobt:allow detrand waives nothing`
var d = time.Second.String()
