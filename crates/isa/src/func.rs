//! Lightweight arithmetic/logic functions carried by markers.
//!
//! Markers carry "a lightweight arithmetic or logical operation which is
//! performed along each propagation step" to update values or influence
//! the status of other markers. Because the microcode table of functions
//! is downloaded at compile time, each marker message only carries a
//! single-byte token naming the function — mirrored here by these small
//! `Copy` enums.

use core::fmt;

/// Function applied to a complex marker's value at **each propagation
/// step**, combining the current value with the traversed link's weight.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StepFunc {
    /// Leave the value unchanged.
    #[default]
    Identity,
    /// `value += weight` — path-cost accumulation (the paper's running
    /// example: "at every propagation step, the weight of the link is
    /// added to the value").
    AddWeight,
    /// `value *= weight` — multiplicative confidence decay.
    MulWeight,
    /// `value = min(value, weight)` — bottleneck strength.
    MinWeight,
    /// `value = max(value, weight)`.
    MaxWeight,
}

impl StepFunc {
    /// Applies the function to a marker value crossing a link of the given
    /// weight.
    #[inline]
    pub fn apply(self, value: f32, weight: f32) -> f32 {
        match self {
            StepFunc::Identity => value,
            StepFunc::AddWeight => value + weight,
            StepFunc::MulWeight => value * weight,
            StepFunc::MinWeight => value.min(weight),
            StepFunc::MaxWeight => value.max(weight),
        }
    }
}

impl fmt::Display for StepFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StepFunc::Identity => "identity",
            StepFunc::AddWeight => "add-weight",
            StepFunc::MulWeight => "mul-weight",
            StepFunc::MinWeight => "min-weight",
            StepFunc::MaxWeight => "max-weight",
        };
        f.write_str(s)
    }
}

/// Function combining two marker values in the global boolean
/// instructions (`AND-MARKER`, `OR-MARKER`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineFunc {
    /// `v3 = v1 + v2` — accumulate evidence.
    #[default]
    Add,
    /// `v3 = min(v1, v2)` — cheapest supporting hypothesis.
    Min,
    /// `v3 = max(v1, v2)`.
    Max,
    /// `v3 = v1`.
    Left,
    /// `v3 = v2`.
    Right,
}

impl CombineFunc {
    /// Combines two complex marker values.
    #[inline]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            CombineFunc::Add => a + b,
            CombineFunc::Min => a.min(b),
            CombineFunc::Max => a.max(b),
            CombineFunc::Left => a,
            CombineFunc::Right => b,
        }
    }
}

impl fmt::Display for CombineFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CombineFunc::Add => "add",
            CombineFunc::Min => "min",
            CombineFunc::Max => "max",
            CombineFunc::Left => "left",
            CombineFunc::Right => "right",
        };
        f.write_str(s)
    }
}

/// Comparison operator used by value-conditional functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `value < threshold`
    Lt,
    /// `value <= threshold`
    Le,
    /// `value > threshold`
    Gt,
    /// `value >= threshold`
    Ge,
    /// `value == threshold`
    Eq,
}

impl Cmp {
    /// Evaluates `value <cmp> threshold`.
    #[inline]
    pub fn eval(self, value: f32, threshold: f32) -> bool {
        match self {
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
            Cmp::Eq => value == threshold,
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
            Cmp::Eq => "==",
        };
        f.write_str(s)
    }
}

/// Function applied globally to a marker's value field by `FUNC-MARKER`.
///
/// `ClearIf`/`KeepIf` are the workhorses of the multiple-hypothesis
/// resolution phase: thresholding the cost values of competing concept
/// sequences deactivates losing candidates in a single word-parallel pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueFunc {
    /// `value *= k`.
    Scale(f32),
    /// `value += k`.
    Offset(f32),
    /// `value = k`.
    Const(f32),
    /// Deactivate the marker where `value <cmp> threshold` holds.
    ClearIf(Cmp, f32),
    /// Deactivate the marker where `value <cmp> threshold` does **not** hold.
    KeepIf(Cmp, f32),
}

impl fmt::Display for ValueFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueFunc::Scale(k) => write!(f, "scale({k})"),
            ValueFunc::Offset(k) => write!(f, "offset({k})"),
            ValueFunc::Const(k) => write!(f, "const({k})"),
            ValueFunc::ClearIf(c, t) => write!(f, "clear-if({c}{t})"),
            ValueFunc::KeepIf(c, t) => write!(f, "keep-if({c}{t})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_funcs() {
        assert_eq!(StepFunc::Identity.apply(2.0, 5.0), 2.0);
        assert_eq!(StepFunc::AddWeight.apply(2.0, 5.0), 7.0);
        assert_eq!(StepFunc::MulWeight.apply(2.0, 5.0), 10.0);
        assert_eq!(StepFunc::MinWeight.apply(2.0, 5.0), 2.0);
        assert_eq!(StepFunc::MaxWeight.apply(2.0, 5.0), 5.0);
    }

    #[test]
    fn combine_funcs() {
        assert_eq!(CombineFunc::Add.apply(1.0, 2.0), 3.0);
        assert_eq!(CombineFunc::Min.apply(1.0, 2.0), 1.0);
        assert_eq!(CombineFunc::Max.apply(1.0, 2.0), 2.0);
        assert_eq!(CombineFunc::Left.apply(1.0, 2.0), 1.0);
        assert_eq!(CombineFunc::Right.apply(1.0, 2.0), 2.0);
    }

    #[test]
    fn comparisons() {
        assert!(Cmp::Lt.eval(1.0, 2.0));
        assert!(!Cmp::Lt.eval(2.0, 2.0));
        assert!(Cmp::Le.eval(2.0, 2.0));
        assert!(Cmp::Gt.eval(3.0, 2.0));
        assert!(Cmp::Ge.eval(2.0, 2.0));
        assert!(Cmp::Eq.eval(2.0, 2.0));
    }

    #[test]
    fn display_round_trips_visually() {
        assert_eq!(StepFunc::AddWeight.to_string(), "add-weight");
        assert_eq!(CombineFunc::Min.to_string(), "min");
        assert_eq!(ValueFunc::ClearIf(Cmp::Gt, 4.0).to_string(), "clear-if(>4)");
    }
}
