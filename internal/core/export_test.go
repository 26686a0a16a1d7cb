package core

// The pattern comparison, for the external fuzz test.
var (
	PatternEqual = patternEqual
	PatternHash  = patternHash
)
