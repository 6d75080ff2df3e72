//! Error type for crossbar operations.

use std::error::Error;
use std::fmt;

/// Which physical line orientation an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// A word line (row index).
    Row,
    /// A bit line (column index; for partitioned ops, the offset
    /// within a partition).
    Col,
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Axis::Row => write!(f, "row"),
            Axis::Col => write!(f, "column"),
        }
    }
}

/// Error raised by crossbar construction or micro-op execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrossbarError {
    /// A row index was outside the array.
    RowOutOfRange {
        /// Offending row index.
        row: usize,
        /// Number of rows in the array.
        rows: usize,
    },
    /// A column index or range end was outside the array.
    ColOutOfRange {
        /// Offending column index.
        col: usize,
        /// Number of columns in the array.
        cols: usize,
    },
    /// An array dimension was zero.
    EmptyDimension,
    /// A MAGIC operation listed the same cell as both input and output
    /// (physically the gate would destroy its own input).
    MagicInOutOverlap {
        /// Orientation of the conflicting line.
        axis: Axis,
        /// The conflicting row/column index (partition offset for
        /// partitioned ops).
        index: usize,
    },
    /// Strict mode: a MAGIC output cell was not initialized to logic 1.
    OutputNotInitialized {
        /// Row of the uninitialized output cell.
        row: usize,
        /// Column of the uninitialized output cell.
        col: usize,
    },
    /// A `WriteRow` payload did not match the addressed column span.
    WidthMismatch {
        /// Bits supplied.
        got: usize,
        /// Bits expected (span width).
        expected: usize,
    },
    /// Partitioned op: the column span is not a multiple of the
    /// partition size, or an offset is outside a partition.
    BadPartition {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A co-issue bundle broke the issue rules: empty, nested, a
    /// serial-only op inside, or two inner ops touching the same cells
    /// (write/write or write/read).
    InvalidBundle {
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A batch lane index (or lane count) was outside the array's
    /// lane range — only the sliced backend carries more than one.
    LaneOutOfRange {
        /// Offending lane index or requested lane count.
        lane: usize,
        /// Lanes the array carries.
        lanes: usize,
    },
}

impl fmt::Display for CrossbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossbarError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range for {rows}-row array")
            }
            CrossbarError::ColOutOfRange { col, cols } => {
                write!(f, "column {col} out of range for {cols}-column array")
            }
            CrossbarError::EmptyDimension => write!(f, "array dimensions must be non-zero"),
            CrossbarError::MagicInOutOverlap { axis, index } => {
                write!(f, "MAGIC {axis} {index} is listed as both input and output")
            }
            CrossbarError::OutputNotInitialized { row, col } => write!(
                f,
                "MAGIC output cell ({row}, {col}) was not initialized to logic 1"
            ),
            CrossbarError::WidthMismatch { got, expected } => {
                write!(
                    f,
                    "row write of {got} bits into a span of {expected} columns"
                )
            }
            CrossbarError::BadPartition { detail } => write!(f, "bad partition: {detail}"),
            CrossbarError::InvalidBundle { detail } => {
                write!(f, "invalid co-issue bundle: {detail}")
            }
            CrossbarError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range for {lanes}-lane array")
            }
        }
    }
}

impl Error for CrossbarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CrossbarError::RowOutOfRange { row: 9, rows: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = CrossbarError::OutputNotInitialized { row: 1, col: 2 };
        assert!(e.to_string().contains("initialized"));
    }

    #[test]
    fn overlap_display_names_the_axis() {
        let e = CrossbarError::MagicInOutOverlap {
            axis: Axis::Row,
            index: 7,
        };
        assert!(e.to_string().contains("row 7"));
        let e = CrossbarError::MagicInOutOverlap {
            axis: Axis::Col,
            index: 3,
        };
        assert!(e.to_string().contains("column 3"));
    }
}
