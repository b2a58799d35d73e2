package feature

// TokenizeRef is tokenizeRef for the external fuzz test, which imports
// internal/retrieval (a package that imports this one).
var TokenizeRef = tokenizeRef
