package efsm

// SymSystem exposes the symmetric token system to the external tests.
var SymSystem = symSystem
