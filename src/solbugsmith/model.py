"""Shared vocabulary: bug categories, snippet forms, injection approaches."""

from __future__ import annotations

from enum import Enum


class BugType(Enum):
    REENTRANCY = "Reentrancy"
    TIMESTAMP_DEPENDENCY = "TimestampDependency"
    UNCHECKED_SEND = "UncheckedSend"
    UNHANDLED_EXCEPTION = "UnhandledException"
    TOD = "TOD"
    INTEGER_OVERFLOW_UNDERFLOW = "IntegerOverflowUnderflow"
    TX_ORIGIN = "TxOrigin"

    def __str__(self) -> str:
        return self.value


class SnippetForm(Enum):
    SIMPLE_STATEMENT = "SimpleStatement"
    NON_FUNCTION_BLOCK = "NonFunctionBlock"
    FUNCTION_DEFINITION = "FunctionDefinition"

    def __str__(self) -> str:
        return self.value


class Approach(Enum):
    FULL_SNIPPET = "FullSnippet"
    CODE_TRANSFORMATION = "CodeTransformation"
    WEAKEN_SECURITY = "WeakenSecurity"

    def __str__(self) -> str:
        return self.value
