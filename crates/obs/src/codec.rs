//! Schema-once documents: a bidirectional field codec over [`Json`] and
//! the [`document!`](crate::document) macro built on it.
//!
//! Every artifact document is declared once, as a struct whose field
//! names are its JSON keys in serialized order. The declaration derives
//! both directions: [`Field::put`] writes the document, and
//! [`Field::take`] reads it back, checking that every key is present with
//! the right JSON type and naming the path of the first mismatch
//! (`chaos.combos[3].served: expected a u64, got a string`). Writers fill
//! the struct and call `put`; readers call `take` and then apply only the
//! domain cross-checks the structure cannot express (see [`crate::read`]).
//! Keys a declaration does not list are ignored.

use crate::json::Json;

/// A value with a fixed JSON form.
pub trait Field: Sized {
    /// The value's JSON form.
    fn put(&self) -> Json;

    /// Reads the value back from `v`; `path` names `v` in errors.
    fn take(v: &Json, path: &str) -> Result<Self, String>;
}

fn found(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::U64(_) | Json::I64(_) => "an integer",
        Json::F64(_) => "a float",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

fn mismatch(path: &str, want: &str, v: &Json) -> String {
    format!("{path}: expected {want}, got {}", found(v))
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put(&self) -> Json {
                Json::U64(*self as u64)
            }

            fn take(v: &Json, path: &str) -> Result<Self, String> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| mismatch(path, concat!("a ", stringify!($t)), v))
            }
        }
    )*};
}

unsigned!(u64, u32, usize);

impl Field for f64 {
    fn put(&self) -> Json {
        Json::F64(*self)
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        match v.as_f64() {
            Some(x) if x.is_finite() => Ok(x),
            _ => Err(mismatch(path, "a finite number", v)),
        }
    }
}

impl Field for bool {
    fn put(&self) -> Json {
        Json::Bool(*self)
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| mismatch(path, "a bool", v))
    }
}

impl Field for String {
    fn put(&self) -> Json {
        Json::Str(self.clone())
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| mismatch(path, "a string", v))
    }
}

/// Free-form payloads pass through as they are, for their producer's own
/// declarations to read (`sgxs_harness::exp::Experiments`, the campaign
/// journal checkpoints). A non-finite number anywhere in them is refused:
/// the writer serializes non-finite floats as `null`, so a parsed `1e999`
/// can only come from a hand-edited or foreign file.
impl Field for Json {
    fn put(&self) -> Json {
        self.clone()
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        check_finite(v, path)?;
        Ok(v.clone())
    }
}

fn check_finite(v: &Json, path: &str) -> Result<(), String> {
    match v {
        Json::F64(f) if !f.is_finite() => Err(format!("non-finite number at {path}")),
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .try_for_each(|(i, item)| check_finite(item, &format!("{path}[{i}]"))),
        Json::Obj(fields) => fields
            .iter()
            .try_for_each(|(k, item)| check_finite(item, &format!("{path}.{k}"))),
        _ => Ok(()),
    }
}

/// `None` is written as `null` (the key stays present).
impl<T: Field> Field for Option<T> {
    fn put(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::put)
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::take(v, path).map(Some),
        }
    }
}

/// A JSON array.
impl<T: Field> Field for Vec<T> {
    fn put(&self) -> Json {
        Json::Arr(self.iter().map(Field::put).collect())
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        let items = v.as_arr().ok_or_else(|| mismatch(path, "an array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::take(item, &format!("{path}[{i}]")))
            .collect()
    }
}

/// A JSON object with free-form keys, in document order.
impl<T: Field> Field for Vec<(String, T)> {
    fn put(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.put())).collect())
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        let Json::Obj(fields) = v else {
            return Err(mismatch(path, "an object", v));
        };
        fields
            .iter()
            .map(|(k, item)| Ok((k.clone(), T::take(item, &format!("{path}.{k}"))?)))
            .collect()
    }
}

/// An `[a, b]` pair, such as a histogram's `[index, count]` bucket.
impl Field for (u64, u64) {
    fn put(&self) -> Json {
        Json::Arr(vec![self.0.put(), self.1.put()])
    }

    fn take(v: &Json, path: &str) -> Result<Self, String> {
        match v.as_arr() {
            Some([a, b]) => Ok((u64::take(a, path)?, u64::take(b, path)?)),
            _ => Err(mismatch(path, "an [a, b] pair", v)),
        }
    }
}

/// Checks that `v` is an object carrying schema tag `tag`, if one is
/// given. Used by [`document!`](crate::document).
#[doc(hidden)]
pub fn object(v: &Json, path: &str, tag: Option<&str>) -> Result<(), String> {
    if !matches!(v, Json::Obj(_)) {
        return Err(mismatch(path, "an object", v));
    }
    match tag {
        Some(want) => match take_key::<String>(v, "schema", path)? {
            got if got == want => Ok(()),
            got => Err(format!("{path}: schema is '{got}', expected '{want}'")),
        },
        None => Ok(()),
    }
}

/// Reads the required field `key` of object `v`. Used by
/// [`document!`](crate::document).
#[doc(hidden)]
pub fn take_key<T: Field>(v: &Json, key: &str, path: &str) -> Result<T, String> {
    match v.get(key) {
        Some(item) => T::take(item, &format!("{path}.{key}")),
        None => Err(format!("{path}: missing field '{key}'")),
    }
}

/// Reads the optional field `key` of object `v`: an absent key is `None`.
/// Used by [`document!`](crate::document).
#[doc(hidden)]
pub fn take_absent<T: Field>(v: &Json, key: &str, path: &str) -> Result<Option<T>, String> {
    v.get(key)
        .map(|item| T::take(item, &format!("{path}.{key}")))
        .transpose()
}

/// Declares a document: a struct plus its [`Field`] impl, derived from one
/// list of fields whose names are the JSON keys in serialized order.
///
/// ```
/// use sgxs_obs::codec::Field;
/// use sgxs_obs::document;
///
/// document! {
///     /// A tagged document with one optional-when-absent key.
///     #[derive(Debug, PartialEq)]
///     pub struct Point["sgxs-point-v1"] {
///         /// Written as an integer.
///         pub x: u64,
///         /// `null` when `None`.
///         pub label: Option<String>,
///         /// Left out of the document when `None`.
///         pub note: Option<String> = absent,
///     }
/// }
///
/// let p = Point { x: 3, label: None, note: None };
/// let text = p.put().to_compact();
/// assert_eq!(text, r#"{"schema":"sgxs-point-v1","x":3,"label":null}"#);
/// let back = Point::take(&sgxs_obs::json::Json::parse(&text).unwrap(), "point");
/// assert_eq!(back, Ok(p));
/// ```
///
/// A `[TAG]` after the name writes `"schema": TAG` as the first key and
/// makes `take` reject any other tag before it reads a field. A field
/// declared `name: Option<T> = absent` is left out of the document when
/// `None`, and a missing key reads as `None` (a plain `Option<T>` field
/// writes `null` and requires the key).
#[macro_export]
macro_rules! document {
    (@put $key:expr, $val:expr) => {
        Some(($key.to_owned(), $crate::codec::Field::put($val)))
    };
    (@put $key:expr, $val:expr, absent) => {
        $val.as_ref().map(|x| ($key.to_owned(), $crate::codec::Field::put(x)))
    };
    (@take $v:ident, $key:expr, $path:ident) => {
        $crate::codec::take_key($v, $key, $path)
    };
    (@take $v:ident, $key:expr, $path:ident, absent) => {
        $crate::codec::take_absent($v, $key, $path)
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $([$tag:expr])? {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(= $kind:ident)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$fmeta])*
                $fvis $field: $ty,
            )*
        }

        impl $crate::codec::Field for $name {
            fn put(&self) -> $crate::json::Json {
                let fields = [
                    $( Some(("schema".to_owned(), $crate::json::Json::from($tag))), )?
                    $( $crate::document!(@put stringify!($field), &self.$field $(, $kind)?), )*
                ];
                $crate::json::Json::Obj(fields.into_iter().flatten().collect())
            }

            fn take(
                v: &$crate::json::Json,
                path: &str,
            ) -> ::std::result::Result<Self, ::std::string::String> {
                $crate::codec::object(v, path, None $(.or(Some($tag)))?)?;
                Ok($name {
                    $( $field: $crate::document!(@take v, stringify!($field), path $(, $kind)?)?, )*
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::document! {
        #[derive(Debug, Clone, PartialEq)]
        struct Inner {
            pairs: Vec<(u64, u64)>,
            named: Vec<(String, u64)>,
        }
    }

    crate::document! {
        #[derive(Debug, Clone, PartialEq)]
        struct Outer["sgxs-test-v1"] {
            n: u32,
            ratio: f64,
            flag: bool,
            label: Option<String>,
            extra: Option<u64> = absent,
            inner: Vec<Inner>,
            raw: Json,
        }
    }

    fn sample() -> Outer {
        Outer {
            n: 7,
            ratio: 0.5,
            flag: true,
            label: None,
            extra: None,
            inner: vec![Inner {
                pairs: vec![(1, 2)],
                named: vec![("b".into(), 1), ("a".into(), 2)],
            }],
            raw: Json::Arr(vec![Json::Null]),
        }
    }

    #[test]
    fn put_then_take_is_the_identity_in_both_directions() {
        let text = sample().put().to_compact();
        assert_eq!(
            text,
            "{\"schema\":\"sgxs-test-v1\",\"n\":7,\"ratio\":0.5,\"flag\":true,\
             \"label\":null,\"inner\":[{\"pairs\":[[1,2]],\"named\":{\"b\":1,\"a\":2}}],\
             \"raw\":[null]}"
        );
        let back = Outer::take(&Json::parse(&text).unwrap(), "t").unwrap();
        assert_eq!(back, sample());
        assert_eq!(back.put().to_compact(), text);
        let with_extra = Outer {
            extra: Some(9),
            ..sample()
        };
        let text = with_extra.put().to_compact();
        assert!(text.contains("\"label\":null,\"extra\":9,"), "{text}");
        assert_eq!(
            Outer::take(&Json::parse(&text).unwrap(), "t"),
            Ok(with_extra)
        );
    }

    /// The error `take` gives for the sample with `key` set to `v`, or
    /// removed for `None`.
    fn error_with(key: &str, v: Option<Json>) -> String {
        let mut j = sample().put();
        if let Json::Obj(fields) = &mut j {
            match v {
                Some(v) => fields
                    .iter_mut()
                    .filter(|(k, _)| k == key)
                    .for_each(|f| f.1 = v.clone()),
                None => fields.retain(|(k, _)| k != key),
            }
        }
        Outer::take(&j, "t").unwrap_err()
    }

    #[test]
    fn take_names_the_path_of_the_first_mismatch() {
        let parsed = |text: &str| Some(Json::parse(text).unwrap());
        let cases = [
            (
                "schema",
                Some("sgxs-test-v2".into()),
                "t: schema is 'sgxs-test-v2', expected 'sgxs-test-v1'",
            ),
            ("flag", None, "t: missing field 'flag'"),
            (
                "n",
                Some(Json::U64(1 << 40)),
                "t.n: expected a u32, got an integer",
            ),
            (
                "ratio",
                Some(Json::F64(f64::INFINITY)),
                "t.ratio: expected a finite number, got a float",
            ),
            (
                "raw",
                Some(Json::Arr(vec![Json::F64(f64::NAN)])),
                "non-finite number at t.raw[0]",
            ),
            (
                "inner",
                parsed("[{\"pairs\":[[1]],\"named\":{}}]"),
                "t.inner[0].pairs[0]: expected an [a, b] pair, got an array",
            ),
            (
                "inner",
                parsed("[{\"pairs\":[],\"named\":{\"k\":\"v\"}}]"),
                "t.inner[0].named.k: expected a u64, got a string",
            ),
        ];
        for (key, v, want) in cases {
            assert_eq!(error_with(key, v), want);
        }
        assert_eq!(
            Outer::take(&Json::Null, "t").unwrap_err(),
            "t: expected an object, got null"
        );
    }
}
